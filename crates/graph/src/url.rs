//! Extraction of the owning Web site from document URLs.
//!
//! The paper groups documents into sites by host name (`www.epfl.ch`,
//! `research.epfl.ch`, ...). [`host_of`] implements that grouping rule:
//! strip the scheme, credentials and port, lowercase the host, and treat
//! the result as the site key.

/// Extracts the host (site key) from a URL.
///
/// Accepts full URLs (`http://Host:8080/path`), scheme-relative URLs
/// (`//host/path`) and bare `host/path` strings. The host is lowercased and
/// the port and userinfo are stripped. Returns `None` for inputs with an
/// empty host.
///
/// # Example
/// ```
/// use lmm_graph::url::host_of;
/// assert_eq!(host_of("http://WWW.EPFL.CH/index.html"), Some("www.epfl.ch".to_string()));
/// assert_eq!(host_of("https://research.epfl.ch:8080/x?y=z"), Some("research.epfl.ch".to_string()));
/// assert_eq!(host_of("lamp.epfl.ch/~user/"), Some("lamp.epfl.ch".to_string()));
/// assert_eq!(host_of("http:///nohost"), None);
/// ```
#[must_use]
pub fn host_of(url: &str) -> Option<String> {
    let rest = if let Some(idx) = url.find("://") {
        &url[idx + 3..]
    } else if let Some(stripped) = url.strip_prefix("//") {
        stripped
    } else {
        url
    };
    // Authority ends at the first '/', '?' or '#'.
    let authority_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let mut authority = &rest[..authority_end];
    // Strip userinfo.
    if let Some(at) = authority.rfind('@') {
        authority = &authority[at + 1..];
    }
    // Strip port (but not IPv6 brackets, which we do not expect in crawls).
    if let Some(colon) = authority.rfind(':') {
        if authority[colon + 1..].chars().all(|c| c.is_ascii_digit()) {
            authority = &authority[..colon];
        }
    }
    if authority.is_empty() {
        None
    } else {
        Some(authority.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_scheme_and_port() {
        assert_eq!(host_of("http://a.b.c/x"), Some("a.b.c".into()));
        assert_eq!(host_of("https://a.b.c:443/"), Some("a.b.c".into()));
        assert_eq!(host_of("ftp://a.b.c"), Some("a.b.c".into()));
    }

    #[test]
    fn lowercases() {
        assert_eq!(host_of("http://WwW.EPFL.ch"), Some("www.epfl.ch".into()));
    }

    #[test]
    fn handles_bare_and_scheme_relative() {
        assert_eq!(host_of("//cdn.x.org/lib.js"), Some("cdn.x.org".into()));
        assert_eq!(host_of("plain.host/path"), Some("plain.host".into()));
    }

    #[test]
    fn strips_userinfo() {
        assert_eq!(host_of("http://user:pw@h.o.st/x"), Some("h.o.st".into()));
    }

    #[test]
    fn query_and_fragment_terminate_authority() {
        assert_eq!(host_of("http://h.o.st?q=1"), Some("h.o.st".into()));
        assert_eq!(host_of("http://h.o.st#frag"), Some("h.o.st".into()));
    }

    #[test]
    fn empty_host_is_none() {
        assert_eq!(host_of("http://"), None);
        assert_eq!(host_of(""), None);
        assert_eq!(host_of("http:///path"), None);
    }
}

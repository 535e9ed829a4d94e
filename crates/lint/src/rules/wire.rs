//! Rule `wire_tags`: wire-tag registry stability.
//!
//! The cluster protocol identifies messages by a hand-assigned tag byte.
//! Tag numbering is load-bearing: a mixed-version cluster mid-rollout
//! decodes frames by these bytes, so renumbering a variant, reusing a
//! tag, or dropping a decode arm silently corrupts cross-version
//! traffic. This pass extracts the `variant -> tag` map from both
//! `Message::tag()` (encode) and `decode_message` (decode), checks
//!
//! * every tag is unique on each side,
//! * the two sides agree exactly (no encode-only or decode-only tags),
//! * the map matches the committed golden registry byte-for-byte.
//!
//! Adding a message is legal: take the next free tag, add both arms, and
//! append the line to `crates/cluster/wire_tags.golden` (or run
//! `cargo run -p lmm-lint -- --update-golden`). Changing an existing
//! line is a wire-compat break and should be treated as one.

use crate::lexer::MaskedFile;
use crate::report::Violation;

const RULE: &str = "wire_tags";

/// `(tag, variant)` pairs extracted from one side of the codec.
pub type TagMap = Vec<(u64, String)>;

/// Extracts the encode map from the `fn tag` match arms
/// (`Message::Variant { .. } => N`).
#[must_use]
pub fn encode_tags(file: &MaskedFile) -> TagMap {
    let Some(body) = file.fns.iter().find(|f| f.name == "tag").map(|f| &f.body) else {
        return Vec::new();
    };
    let text = &file.masked[body.clone()];
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = text[from..].find("Message::") {
        let at = from + off + "Message::".len();
        from = at;
        let variant: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if variant.is_empty() {
            continue;
        }
        // The arm's `=> N` follows, before the next `Message::`.
        let rest_end = text[at..].find("Message::").map_or(text.len(), |o| at + o);
        let rest = &text[at..rest_end];
        if let Some(arrow) = rest.find("=>") {
            let num: String = rest[arrow + 2..]
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if let Ok(tag) = num.parse::<u64>() {
                out.push((tag, variant));
            }
        }
    }
    out
}

/// Extracts the decode map from the first `match` in `decode_message`:
/// numeric arms at the top level of the match (`N => … Message::Variant`).
#[must_use]
pub fn decode_tags(file: &MaskedFile) -> TagMap {
    let Some(body) = file
        .fns
        .iter()
        .find(|f| f.name == "decode_message")
        .map(|f| &f.body)
    else {
        return Vec::new();
    };
    let text = &file.masked[body.clone()];
    let bytes = text.as_bytes();
    let Some(match_at) = text.find("match ") else {
        return Vec::new();
    };
    let Some(open_off) = text[match_at..].find('{') else {
        return Vec::new();
    };
    let open = match_at + open_off;

    // Numeric arm heads at brace depth 1 relative to the match's `{`
    // (arms of nested matches sit deeper and are skipped).
    let mut heads: Vec<(usize, u64)> = Vec::new();
    let mut depth = 0i32;
    let mut k = open;
    while k < bytes.len() {
        match bytes[k] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b'0'..=b'9' if depth == 1 => {
                let start = k;
                let prev = bytes[..k].iter().rev().find(|b| !b.is_ascii_whitespace());
                let at_arm_head = matches!(prev, Some(b'{' | b',' | b'}'));
                while k < bytes.len() && bytes[k].is_ascii_digit() {
                    k += 1;
                }
                let after = text[k..].trim_start();
                if at_arm_head && after.starts_with("=>") {
                    if let Ok(tag) = text[start..k].parse::<u64>() {
                        heads.push((start, tag));
                    }
                }
                continue;
            }
            _ => {}
        }
        k += 1;
    }

    let mut out = Vec::new();
    for (i, &(start, tag)) in heads.iter().enumerate() {
        let arm_end = heads.get(i + 1).map_or(text.len(), |&(next, _)| next);
        let arm = &text[start..arm_end];
        if let Some(off) = arm.find("Message::") {
            let variant: String = arm[off + "Message::".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !variant.is_empty() {
                out.push((tag, variant));
            }
        }
    }
    out
}

/// Renders a `TagMap` in golden-registry format.
#[must_use]
pub fn render_golden(encode: &TagMap) -> String {
    let mut sorted = encode.clone();
    sorted.sort_by_key(|&(tag, _)| tag);
    let mut out = String::from(
        "# lmm wire-tag registry — extracted from cluster/src/wire.rs by lmm-lint.\n\
         # One line per message: `<tag> <variant>`. Tags are wire-compat\n\
         # critical: append for new messages, never renumber or reuse.\n",
    );
    for (tag, variant) in &sorted {
        out.push_str(&format!("{tag} {variant}\n"));
    }
    out
}

/// Parses a golden registry file into a `TagMap`.
#[must_use]
fn parse_golden(text: &str) -> TagMap {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(tag), Some(variant)) = (parts.next(), parts.next()) {
            if let Ok(tag) = tag.parse::<u64>() {
                out.push((tag, variant.to_string()));
            }
        }
    }
    out
}

/// Runs the full wire-tag check: uniqueness, encode/decode symmetry, and
/// golden-registry agreement. `golden` is `None` when the registry file
/// is missing.
pub fn check(
    file: &MaskedFile,
    path: &str,
    golden: Option<&str>,
    golden_path: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let encode = encode_tags(file);
    let decode = decode_tags(file);

    if encode.is_empty() {
        out.push(Violation::new(
            RULE,
            path,
            0,
            "could not extract any tags from `fn tag` — the codec moved; update lmm-lint",
        ));
        return out;
    }

    for (name, map) in [("encode (fn tag)", &encode), ("decode_message", &decode)] {
        let mut seen: std::collections::BTreeMap<u64, &str> = std::collections::BTreeMap::new();
        for (tag, variant) in map {
            if let Some(first) = seen.insert(*tag, variant) {
                out.push(Violation::new(
                    RULE,
                    path,
                    0,
                    format!(
                        "duplicate tag {tag} in {name}: claimed by both `{first}` and \
                         `{variant}` — a mixed-version peer cannot tell them apart"
                    ),
                ));
            }
        }
    }

    let sorted = |m: &TagMap| {
        let mut s = m.clone();
        s.sort();
        s
    };
    let (enc_sorted, dec_sorted) = (sorted(&encode), sorted(&decode));
    if enc_sorted != dec_sorted {
        for (tag, variant) in &enc_sorted {
            if !dec_sorted.contains(&(*tag, variant.clone())) {
                out.push(Violation::new(
                    RULE,
                    path,
                    0,
                    format!(
                        "`{variant}` encodes as tag {tag} but decode_message has no matching \
                         arm — frames of this type will be rejected as BadTag"
                    ),
                ));
            }
        }
        for (tag, variant) in &dec_sorted {
            if !enc_sorted.contains(&(*tag, variant.clone())) {
                out.push(Violation::new(
                    RULE,
                    path,
                    0,
                    format!(
                        "decode_message accepts tag {tag} as `{variant}` but nothing encodes \
                         it — dead arm or a renumbered variant"
                    ),
                ));
            }
        }
    }

    match golden {
        None => out.push(Violation::new(
            RULE,
            golden_path,
            0,
            "golden wire-tag registry is missing; run `cargo run -p lmm-lint -- \
             --update-golden` and commit it",
        )),
        Some(text) => {
            let golden_map = sorted(&parse_golden(text));
            if golden_map != enc_sorted {
                for (tag, variant) in &enc_sorted {
                    if !golden_map.contains(&(*tag, variant.clone())) {
                        out.push(Violation::new(
                            RULE,
                            golden_path,
                            0,
                            format!(
                                "wire.rs assigns tag {tag} to `{variant}` but the golden \
                                 registry does not; if this is a new message, append it — \
                                 if an old tag moved, that is a wire-compat break"
                            ),
                        ));
                    }
                }
                for (tag, variant) in &golden_map {
                    if !enc_sorted.contains(&(*tag, variant.clone())) {
                        out.push(Violation::new(
                            RULE,
                            golden_path,
                            0,
                            format!(
                                "golden registry lists tag {tag} `{variant}` but wire.rs no \
                                 longer does — removing a message retires its tag forever; \
                                 do not reuse it"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

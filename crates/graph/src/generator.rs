//! Deterministic synthetic web-graph generators.
//!
//! The paper's evaluation uses a late-2003 crawl of the EPFL campus web
//! (218 sites, 433,707 pages) that is not publicly available. The
//! [`CampusWebConfig`] generator substitutes a synthetic campus web that
//! reproduces the structural properties the evaluation depends on:
//!
//! * **Zipf-distributed site sizes** and site popularity (a few large
//!   central sites, a long tail of small labs and groups);
//! * **hierarchical intra-site structure**: a navigation-tree backbone with
//!   preferential attachment to early pages (site roots and hubs);
//! * **hub-concentrated inter-site links**: most cross-site links target
//!   the destination site's root page, as home pages do on real webs;
//! * **injected intra-site spam farms** ([`SpamFarmConfig`]) modeled on the
//!   two agglomerates the paper dissects in Figure 3 — a `Webdriver?`-style
//!   dynamic-page cluster and a javadoc-style mirror — i.e. thousands of
//!   densely interlinked pages inside a single site, giving their hub pages
//!   enormous *intra-site* in-degree.
//!
//! Flat PageRank is hijacked by those farms exactly as in the paper's
//! Figure 3; the layered method caps each site's influence through the
//! SiteRank factor, reproducing Figure 4. All generation is deterministic
//! given the seed.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::docgraph::{DocGraph, DocGraphBuilder, PageKind};
use crate::error::{GraphError, Result};
use crate::ids::DocId;

/// Samples indices `0..n` with probability proportional to `(i+1)^-exponent`
/// via an inverse-CDF table.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` outcomes.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidConfig`] when `n == 0` or the exponent
    /// is negative or not finite.
    pub fn new(n: usize, exponent: f64) -> Result<Self> {
        if n == 0 {
            return Err(GraphError::InvalidConfig {
                reason: "zipf sampler needs at least one outcome".into(),
            });
        }
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(GraphError::InvalidConfig {
                reason: format!("zipf exponent {exponent} must be finite and >= 0"),
            });
        }
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Self { cdf })
    }

    /// Draws one index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability weight of outcome `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn weight(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Draws an index in `0..n` biased toward 0: `floor(n * u^strength)`.
/// `strength = 1` is uniform; larger values concentrate on early indices
/// (site roots and hubs).
fn biased_early<R: Rng>(rng: &mut R, n: usize, strength: f64) -> usize {
    debug_assert!(n > 0);
    let u: f64 = rng.random();
    ((n as f64 * u.powf(strength)) as usize).min(n - 1)
}

/// Visual style of an injected spam farm (affects URL naming only; the link
/// structure is the same dense agglomerate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpamStyle {
    /// Server-side script output, like the paper's
    /// `research.epfl.ch/research/Webdriver?...` cluster.
    #[default]
    DynamicScript,
    /// A mirrored documentation tree, like the paper's
    /// `lamp.epfl.ch/~linuxsoft/java/jdk1.4/docs/...` javadocs.
    MirroredDocs,
}

/// Configuration of one injected intra-site spam farm.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamFarmConfig {
    /// Index of the site hosting the farm.
    pub host_site: usize,
    /// Number of farm pages.
    pub n_pages: usize,
    /// Number of heavily-targeted hub pages inside the farm (every farm
    /// page links to all of them).
    pub n_targets: usize,
    /// Additional random intra-farm links emitted per page.
    pub links_per_page: usize,
    /// Links from regular pages of the host site into the farm (crawl
    /// reachability).
    pub entry_links: usize,
    /// URL naming style.
    pub style: SpamStyle,
}

impl Default for SpamFarmConfig {
    fn default() -> Self {
        Self {
            host_site: 1,
            n_pages: 1_500,
            n_targets: 6,
            links_per_page: 12,
            entry_links: 4,
            style: SpamStyle::DynamicScript,
        }
    }
}

/// Configuration of the synthetic campus web.
///
/// # Example
/// ```
/// use lmm_graph::generator::CampusWebConfig;
/// # fn main() -> Result<(), lmm_graph::GraphError> {
/// let g = CampusWebConfig::small().generate()?;
/// assert!(g.n_docs() > 1_000);
/// assert!(g.spam_labels().iter().any(|&s| s));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampusWebConfig {
    /// Number of sites (the paper's crawl has 218).
    pub n_sites: usize,
    /// Approximate number of regular (non-farm) documents.
    pub total_docs: usize,
    /// Zipf exponent of site sizes.
    pub site_size_exponent: f64,
    /// Minimum pages per site.
    pub min_site_size: usize,
    /// Expected extra intra-site links per document (beyond the navigation
    /// backbone).
    pub intra_links_per_doc: f64,
    /// Expected cross-site links emitted per document.
    pub inter_links_per_doc: f64,
    /// Zipf exponent of destination-site popularity for cross links.
    pub inter_site_exponent: f64,
    /// Probability that a cross-site link targets the destination site's
    /// root page.
    pub root_bias: f64,
    /// Injected spam farms.
    pub spam_farms: Vec<SpamFarmConfig>,
    /// RNG seed; equal seeds yield identical graphs.
    pub seed: u64,
}

impl Default for CampusWebConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl CampusWebConfig {
    /// A small configuration (≈2,000 pages, 40 sites) for tests and quick
    /// examples.
    #[must_use]
    pub fn small() -> Self {
        Self {
            n_sites: 40,
            total_docs: 2_000,
            site_size_exponent: 1.0,
            min_site_size: 8,
            intra_links_per_doc: 3.0,
            inter_links_per_doc: 0.35,
            inter_site_exponent: 1.1,
            root_bias: 0.65,
            spam_farms: vec![
                SpamFarmConfig {
                    host_site: 11,
                    n_pages: 400,
                    n_targets: 4,
                    links_per_page: 10,
                    entry_links: 3,
                    style: SpamStyle::DynamicScript,
                },
                SpamFarmConfig {
                    host_site: 23,
                    n_pages: 250,
                    n_targets: 3,
                    links_per_page: 8,
                    entry_links: 3,
                    style: SpamStyle::MirroredDocs,
                },
            ],
            seed: 42,
        }
    }

    /// The default experiment scale: 218 sites (as in the paper) and ≈50k
    /// pages — large enough for the Figure 3/4 phenomena, small enough for
    /// CI.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            n_sites: 218,
            total_docs: 50_000,
            site_size_exponent: 1.0,
            min_site_size: 20,
            intra_links_per_doc: 4.0,
            inter_links_per_doc: 0.30,
            inter_site_exponent: 1.1,
            root_bias: 0.65,
            // The farms sit on mid-tail sites (like the paper's
            // lamp.epfl.ch javadoc mirror): their page count — not their
            // host's importance — is what hijacks flat PageRank, while the
            // host's low SiteRank is what lets the layered method demote
            // them.
            spam_farms: vec![
                SpamFarmConfig {
                    host_site: 17,
                    n_pages: 4_000,
                    n_targets: 8,
                    links_per_page: 12,
                    entry_links: 6,
                    style: SpamStyle::DynamicScript,
                },
                SpamFarmConfig {
                    host_site: 23,
                    n_pages: 2_500,
                    n_targets: 5,
                    links_per_page: 10,
                    entry_links: 5,
                    style: SpamStyle::MirroredDocs,
                },
            ],
            seed: 20031115, // the crawl is from late 2003
        }
    }

    /// Approximates the full crawl scale (218 sites, ≈433k pages). Slower;
    /// used by the `--full` experiment presets.
    #[must_use]
    pub fn full_scale() -> Self {
        Self {
            total_docs: 430_000,
            min_site_size: 50,
            spam_farms: vec![
                SpamFarmConfig {
                    host_site: 17,
                    n_pages: 17_000,
                    n_targets: 8,
                    links_per_page: 16,
                    entry_links: 8,
                    style: SpamStyle::DynamicScript,
                },
                SpamFarmConfig {
                    host_site: 23,
                    n_pages: 6_400,
                    n_targets: 5,
                    links_per_page: 14,
                    entry_links: 6,
                    style: SpamStyle::MirroredDocs,
                },
            ],
            ..Self::paper_scale()
        }
    }

    /// Returns `self` with spam farms removed (the clean-web ablation).
    #[must_use]
    pub fn without_spam(mut self) -> Self {
        self.spam_farms.clear();
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.n_sites == 0 {
            return Err(GraphError::InvalidConfig {
                reason: "n_sites must be positive".into(),
            });
        }
        if self.min_site_size == 0 {
            return Err(GraphError::InvalidConfig {
                reason: "min_site_size must be positive".into(),
            });
        }
        if self.total_docs < self.n_sites * self.min_site_size {
            return Err(GraphError::InvalidConfig {
                reason: format!(
                    "total_docs {} cannot fit {} sites of at least {} pages",
                    self.total_docs, self.n_sites, self.min_site_size
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.root_bias) {
            return Err(GraphError::InvalidConfig {
                reason: format!("root_bias {} must lie in [0, 1]", self.root_bias),
            });
        }
        for (i, farm) in self.spam_farms.iter().enumerate() {
            if farm.host_site >= self.n_sites {
                return Err(GraphError::InvalidConfig {
                    reason: format!(
                        "spam farm {i} hosted on site {} but there are only {} sites",
                        farm.host_site, self.n_sites
                    ),
                });
            }
            if farm.n_targets == 0 || farm.n_targets > farm.n_pages {
                return Err(GraphError::InvalidConfig {
                    reason: format!(
                        "spam farm {i}: n_targets {} must lie in 1..={}",
                        farm.n_targets, farm.n_pages
                    ),
                });
            }
        }
        Ok(())
    }

    /// Generates the campus web.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidConfig`] when [`validate`](Self::validate)
    /// fails.
    pub fn generate(&self) -> Result<DocGraph> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut builder = DocGraphBuilder::with_capacity(
            self.total_docs + self.spam_farms.iter().map(|f| f.n_pages).sum::<usize>(),
            self.total_docs * 6,
        );

        let site_names: Vec<String> = (0..self.n_sites).map(site_name).collect();
        let sizes = self.site_sizes();

        // Regular pages, site by site; doc 0 of each site is the root.
        let mut site_docs: Vec<Vec<DocId>> = Vec::with_capacity(self.n_sites);
        for (s, (&size, name)) in sizes.iter().zip(&site_names).enumerate() {
            let mut docs = Vec::with_capacity(size);
            for j in 0..size {
                let (url, kind) = if j == 0 {
                    (format!("http://{name}/"), PageKind::SiteRoot)
                } else {
                    (format!("http://{name}/page{j}.html"), PageKind::Regular)
                };
                docs.push(builder.add_doc_with_kind(name, &url, kind));
            }
            site_docs.push(docs);
            debug_assert_eq!(site_docs[s].len(), size);
        }

        // Intra-site structure: navigation backbone + extra hub-biased links.
        for docs in &site_docs {
            let n = docs.len();
            for j in 1..n {
                let parent = biased_early(&mut rng, j, 2.0);
                builder.add_link(docs[parent], docs[j])?;
                if rng.random::<f64>() < 0.35 {
                    builder.add_link(docs[j], docs[0])?; // "home" link
                }
                if rng.random::<f64>() < 0.30 {
                    builder.add_link(docs[j], docs[parent])?; // "up" link
                }
            }
            let extra = (self.intra_links_per_doc * n as f64).round() as usize;
            for _ in 0..extra {
                let src = rng.random_range(0..n);
                let dst = biased_early(&mut rng, n, 2.5);
                if src != dst {
                    builder.add_link(docs[src], docs[dst])?;
                }
            }
        }

        // Inter-site links: destination site ~ Zipf, destination page mostly
        // the root.
        let dest_sampler = ZipfSampler::new(self.n_sites, self.inter_site_exponent)?;
        for (s, docs) in site_docs.iter().enumerate() {
            let n = docs.len();
            let n_cross = ((self.inter_links_per_doc * n as f64).round() as usize).max(1);
            for _ in 0..n_cross {
                let src = biased_early(&mut rng, n, 1.5);
                let mut dst_site = dest_sampler.sample(&mut rng);
                let mut guard = 0;
                while dst_site == s && guard < 16 {
                    dst_site = dest_sampler.sample(&mut rng);
                    guard += 1;
                }
                if dst_site == s {
                    continue;
                }
                let dst_docs = &site_docs[dst_site];
                let dst = if rng.random::<f64>() < self.root_bias {
                    dst_docs[0]
                } else {
                    dst_docs[biased_early(&mut rng, dst_docs.len(), 2.0)]
                };
                builder.add_link(docs[src], dst)?;
            }
        }

        // Spam farms: dense intra-site agglomerates appended to their host
        // sites.
        for (f, farm) in self.spam_farms.iter().enumerate() {
            let host = &site_names[farm.host_site];
            let mut farm_docs = Vec::with_capacity(farm.n_pages);
            for j in 0..farm.n_pages {
                let url = match farm.style {
                    SpamStyle::DynamicScript => {
                        format!("http://{host}/app/Webdriver?LO=farm{f}&id={j}")
                    }
                    SpamStyle::MirroredDocs => {
                        format!("http://{host}/~mirror/docs/api/f{f}/p{j}.html")
                    }
                };
                farm_docs.push(builder.add_doc_with_kind(host, &url, PageKind::SpamFarm));
            }
            // Every farm page links to every target hub.
            for &p in &farm_docs {
                for &t in &farm_docs[..farm.n_targets] {
                    if p != t {
                        builder.add_link(p, t)?;
                    }
                }
                for _ in 0..farm.links_per_page {
                    let sibling = farm_docs[rng.random_range(0..farm.n_pages)];
                    if sibling != p {
                        builder.add_link(p, sibling)?;
                    }
                }
            }
            // Targets interlink (they are the cluster's navigation hubs).
            for (i, &t) in farm_docs[..farm.n_targets].iter().enumerate() {
                for (j, &u) in farm_docs[..farm.n_targets].iter().enumerate() {
                    if i != j {
                        builder.add_link(t, u)?;
                    }
                }
            }
            // Entry links from the host site's regular pages.
            let host_docs = &site_docs[farm.host_site];
            for _ in 0..farm.entry_links {
                let src = host_docs[biased_early(&mut rng, host_docs.len(), 1.5)];
                builder.add_link(src, farm_docs[0])?;
            }
        }

        Ok(builder.build())
    }

    /// The per-site regular page counts implied by the configuration
    /// (Zipf-distributed, clamped below by `min_site_size`).
    #[must_use]
    pub fn site_sizes(&self) -> Vec<usize> {
        let weights: Vec<f64> = (0..self.n_sites)
            .map(|i| ((i + 1) as f64).powf(-self.site_size_exponent))
            .collect();
        let total_w: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| {
                ((self.total_docs as f64) * w / total_w)
                    .round()
                    .max(self.min_site_size as f64) as usize
            })
            .collect()
    }
}

/// Deterministic synthetic site host names: site 0 is the campus portal,
/// the next few are recognizable central services, the tail are numbered
/// departments. Mirrors the flavor of the paper's Figure 3/4 URL lists.
#[must_use]
pub fn site_name(index: usize) -> String {
    const NAMED: &[&str] = &[
        "www.campus.edu",
        "research.campus.edu",
        "news.campus.edu",
        "library.campus.edu",
        "students.campus.edu",
        "admissions.campus.edu",
        "events.campus.edu",
        "search.campus.edu",
        "alumni.campus.edu",
        "it.campus.edu",
        "physics.campus.edu",
        "biology.campus.edu",
        "cs.campus.edu",
        "math.campus.edu",
        "chemistry.campus.edu",
        "engineering.campus.edu",
        "arts.campus.edu",
        "lamp.campus.edu",
        "press.campus.edu",
        "sports.campus.edu",
    ];
    match NAMED.get(index) {
        Some(name) => (*name).to_string(),
        None => format!("dept{index:03}.campus.edu"),
    }
}

/// Generates a uniform random web: `n_docs` documents spread round-robin
/// over `n_sites` sites with `links_per_doc` uniformly random edges each.
/// Used by benchmarks and property tests that need unstructured graphs.
///
/// # Errors
/// Returns [`GraphError::InvalidConfig`] for zero docs/sites or
/// `n_sites > n_docs`.
pub fn random_web(
    n_docs: usize,
    n_sites: usize,
    links_per_doc: usize,
    seed: u64,
) -> Result<DocGraph> {
    if n_docs == 0 || n_sites == 0 || n_sites > n_docs {
        return Err(GraphError::InvalidConfig {
            reason: format!("invalid random web shape: {n_docs} docs over {n_sites} sites"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = DocGraphBuilder::with_capacity(n_docs, n_docs * links_per_doc);
    let mut docs = Vec::with_capacity(n_docs);
    for d in 0..n_docs {
        let site = d % n_sites;
        let name = format!("site{site:04}.random.net");
        let kind = if d < n_sites {
            PageKind::SiteRoot
        } else {
            PageKind::Regular
        };
        docs.push(builder.add_doc_with_kind(&name, &format!("http://{name}/d{d}"), kind));
    }
    for &src in &docs {
        for _ in 0..links_per_doc {
            let dst = docs[rng.random_range(0..n_docs)];
            if dst != src {
                builder.add_link(src, dst)?;
            }
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteId;

    #[test]
    fn zipf_sampler_prefers_low_indices() {
        let z = ZipfSampler::new(100, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_weights_sum_to_one() {
        let z = ZipfSampler::new(10, 0.8).unwrap();
        let total: f64 = (0..10).map(|i| z.weight(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_rejects_bad_inputs() {
        assert!(ZipfSampler::new(0, 1.0).is_err());
        assert!(ZipfSampler::new(5, -1.0).is_err());
        assert!(ZipfSampler::new(5, f64::NAN).is_err());
    }

    #[test]
    fn small_campus_generates_with_expected_shape() {
        let cfg = CampusWebConfig::small();
        let g = cfg.generate().unwrap();
        assert_eq!(g.n_sites(), cfg.n_sites);
        let farm_pages: usize = cfg.spam_farms.iter().map(|f| f.n_pages).sum();
        assert!(g.n_docs() >= cfg.total_docs / 2);
        assert!(g.n_docs() <= cfg.total_docs * 2 + farm_pages);
        assert!(g.n_links() > g.n_docs()); // well-connected
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CampusWebConfig::small();
        let g1 = cfg.generate().unwrap();
        let g2 = cfg.generate().unwrap();
        assert_eq!(g1, g2);
        let g3 = CampusWebConfig { seed: 43, ..cfg }.generate().unwrap();
        assert_ne!(g1, g3);
    }

    #[test]
    fn roots_collect_cross_site_indegree() {
        let g = CampusWebConfig::small().generate().unwrap();
        let indeg = g.in_degrees();
        // The portal root (doc 0 of site 0) must be among the best-linked
        // non-spam pages.
        let root0 = g.docs_of_site(SiteId(0))[0];
        let max_regular = (0..g.n_docs())
            .filter(|&d| !g.spam_labels()[d])
            .map(|d| indeg[d])
            .max()
            .unwrap();
        assert!(indeg[root0.index()] as f64 >= max_regular as f64 * 0.3);
    }

    #[test]
    fn spam_targets_dominate_indegree() {
        let cfg = CampusWebConfig::small();
        let g = cfg.generate().unwrap();
        let indeg = g.in_degrees();
        let spam = g.spam_labels();
        let max_spam = (0..g.n_docs())
            .filter(|&d| spam[d])
            .map(|d| indeg[d])
            .max()
            .unwrap();
        let max_regular = (0..g.n_docs())
            .filter(|&d| !spam[d])
            .map(|d| indeg[d])
            .max()
            .unwrap();
        // The farm hubs out-collect every legitimate page — the precondition
        // for the Figure 3 phenomenon.
        assert!(
            max_spam > max_regular,
            "spam max in-degree {max_spam} vs regular {max_regular}"
        );
    }

    #[test]
    fn spam_pages_live_in_their_host_site() {
        let cfg = CampusWebConfig::small();
        let g = cfg.generate().unwrap();
        for (d, &is_spam) in g.spam_labels().iter().enumerate() {
            if is_spam {
                let site = g.site_of(DocId(d)).index();
                assert!(cfg.spam_farms.iter().any(|f| f.host_site == site));
            }
        }
    }

    #[test]
    fn without_spam_removes_farms() {
        let g = CampusWebConfig::small().without_spam().generate().unwrap();
        assert!(g.spam_labels().iter().all(|&s| !s));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = CampusWebConfig::small();
        cfg.n_sites = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 10;
        assert!(cfg.validate().is_err());

        let mut cfg = CampusWebConfig::small();
        cfg.root_bias = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = CampusWebConfig::small();
        cfg.spam_farms[0].host_site = 10_000;
        assert!(cfg.validate().is_err());

        let mut cfg = CampusWebConfig::small();
        cfg.spam_farms[0].n_targets = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn site_sizes_respect_minimum_and_order() {
        let cfg = CampusWebConfig::small();
        let sizes = cfg.site_sizes();
        assert_eq!(sizes.len(), cfg.n_sites);
        assert!(sizes.iter().all(|&s| s >= cfg.min_site_size));
        assert!(sizes[0] >= sizes[cfg.n_sites - 1]); // Zipf: site 0 largest
    }

    #[test]
    fn random_web_shape() {
        let g = random_web(500, 20, 5, 9).unwrap();
        assert_eq!(g.n_docs(), 500);
        assert_eq!(g.n_sites(), 20);
        assert!(g.n_links() > 1_000);
        assert!(random_web(5, 10, 2, 0).is_err());
    }

    #[test]
    fn site_names_unique_for_many_sites() {
        let names: std::collections::HashSet<String> = (0..500).map(site_name).collect();
        assert_eq!(names.len(), 500);
    }
}

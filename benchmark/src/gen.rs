//! Generated inputs: the delta stream, the query mix and the arrival
//! schedule. All of it is a pure function of the seed and of the shape of
//! the web it is generated against; the product sees only the result.

use std::collections::VecDeque;

use crate::rng::{ScheduleHash, SplitMix};

/// Documents per `score_batch` call.
pub const BATCH: usize = 16;
/// Pages of a site the churn stream adds.
const NEW_SITE_PAGES: usize = 20;

/// What the generators need to know about the current web. The product's
/// graph implements it in `sut`; tests implement it with a fake.
pub trait WebView {
    fn n_docs(&self) -> usize;
    fn n_sites(&self) -> usize;
    fn site_size(&self, site: usize) -> usize;
    fn site_doc(&self, site: usize, i: usize) -> usize;
    /// Some link `doc -> x` with `x` in `doc`'s own site.
    fn intra_site_link(&self, doc: usize) -> Option<usize>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaKind {
    /// Rewire inside one site and grow another by a page: the site layer
    /// stays valid, only the named sites are stale.
    Local,
    /// A cross-site link, and every other time a whole new site: the site
    /// layer reruns.
    Global,
    /// A page and, when one exists, a site the stream added earlier are
    /// removed: rank mass is redistributed over the survivors.
    Removal,
}

impl DeltaKind {
    pub const ALL: [DeltaKind; 3] = [DeltaKind::Local, DeltaKind::Global, DeltaKind::Removal];

    pub fn name(self) -> &'static str {
        match self {
            DeltaKind::Local => "local",
            DeltaKind::Global => "global",
            DeltaKind::Removal => "removal",
        }
    }
}

/// One structural delta, in ids: new sites are numbered from the web's
/// site count and new pages from its document count, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSpec {
    pub kind: DeltaKind,
    pub new_sites: usize,
    /// The site of each new page.
    pub new_pages: Vec<usize>,
    pub remove_links: Vec<(usize, usize)>,
    pub add_links: Vec<(usize, usize)>,
    pub remove_pages: Vec<usize>,
    pub remove_sites: Vec<usize>,
}

impl DeltaSpec {
    fn new(kind: DeltaKind) -> Self {
        Self {
            kind,
            new_sites: 0,
            new_pages: Vec::new(),
            remove_links: Vec::new(),
            add_links: Vec::new(),
            remove_pages: Vec::new(),
            remove_sites: Vec::new(),
        }
    }

    /// Structural edits the delta records.
    pub fn ops(&self) -> usize {
        self.new_sites
            + self.new_pages.len()
            + self.remove_links.len()
            + self.add_links.len()
            + self.remove_pages.len()
            + self.remove_sites.len()
    }

    pub fn hash_into(&self, h: &mut ScheduleHash) {
        h.push(self.kind as u64);
        h.push(self.new_sites as u64);
        for &s in &self.new_pages {
            h.push(s as u64);
        }
        for &(a, b) in self.remove_links.iter().chain(&self.add_links) {
            h.push(a as u64);
            h.push(b as u64);
        }
        for &x in self.remove_pages.iter().chain(&self.remove_sites) {
            h.push(x as u64);
        }
    }
}

/// The seeded delta stream: about 60 % local, 25 % global, 15 % removal.
///
/// The base web is never shrunk: removals take back only what the stream
/// itself added (oldest first), so every base document and site stays
/// queryable at every epoch, no query of the mix can fail, and the live
/// site count stays within a few sites of where it started.
#[derive(Debug)]
pub struct Churn {
    rng: SplitMix,
    base_sites: usize,
    added_pages: VecDeque<usize>,
    added_sites: VecDeque<usize>,
    globals: usize,
}

impl Churn {
    pub fn new(rng: SplitMix, base: &dyn WebView) -> Self {
        Self {
            rng,
            base_sites: base.n_sites(),
            added_pages: VecDeque::new(),
            added_sites: VecDeque::new(),
            globals: 0,
        }
    }

    /// Sites the stream has added and not yet removed.
    pub fn live_added_sites(&self) -> usize {
        self.added_sites.len()
    }

    /// The next delta against `web`, which must be the web every earlier
    /// delta of this stream has been applied to.
    pub fn next(&mut self, web: &dyn WebView) -> DeltaSpec {
        let kind = match self.rng.below(100) {
            0..=59 => DeltaKind::Local,
            60..=84 => DeltaKind::Global,
            // Nothing of the stream's own to take back yet: stay local.
            _ if self.added_pages.is_empty() && self.added_sites.is_empty() => DeltaKind::Local,
            _ => DeltaKind::Removal,
        };
        let mut spec = DeltaSpec::new(kind);
        match kind {
            DeltaKind::Local => {
                let page = local_edit(&mut self.rng, self.base_sites, web, &mut spec);
                self.added_pages.push_back(page);
            }
            DeltaKind::Global => {
                let site_a = site_of_size(&mut self.rng, self.base_sites, web, 1);
                let site_b = loop {
                    let s = site_of_size(&mut self.rng, self.base_sites, web, 1);
                    if s != site_a {
                        break s;
                    }
                };
                let a = member(&mut self.rng, web, site_a);
                let b = member(&mut self.rng, web, site_b);
                spec.add_links.push((a, b));
                self.globals += 1;
                if self.globals.is_multiple_of(2) {
                    let site = web.n_sites();
                    let first = web.n_docs();
                    spec.new_sites = 1;
                    spec.new_pages = vec![site; NEW_SITE_PAGES];
                    for i in 0..NEW_SITE_PAGES {
                        spec.add_links
                            .push((first + i, first + (i + 1) % NEW_SITE_PAGES));
                    }
                    spec.add_links.push((a, first));
                    spec.add_links.push((first, a));
                    self.added_sites.push_back(site);
                }
            }
            DeltaKind::Removal => {
                if let Some(page) = self.added_pages.pop_front() {
                    spec.remove_pages.push(page);
                }
                if let Some(site) = self.added_sites.pop_front() {
                    spec.remove_sites.push(site);
                }
            }
        }
        spec
    }
}

fn site_of_size(
    rng: &mut SplitMix,
    base_sites: usize,
    web: &dyn WebView,
    min_size: usize,
) -> usize {
    loop {
        let site = rng.below(base_sites);
        if web.site_size(site) >= min_size {
            return site;
        }
    }
}

fn member(rng: &mut SplitMix, web: &dyn WebView, site: usize) -> usize {
    web.site_doc(site, rng.below(web.site_size(site)))
}

/// One local edit appended to `spec`: rewire a link inside one base site
/// and grow another base site by a page, linked both ways with the site's
/// first document. Returns the new page's id.
fn local_edit(
    rng: &mut SplitMix,
    base_sites: usize,
    web: &dyn WebView,
    spec: &mut DeltaSpec,
) -> usize {
    let site = site_of_size(rng, base_sites, web, 3);
    let from = member(rng, web, site);
    let to = member(rng, web, site);
    if let Some(old) = web.intra_site_link(from) {
        spec.remove_links.push((from, old));
    }
    if from != to {
        spec.add_links.push((from, to));
    }
    let grown = site_of_size(rng, base_sites, web, 1);
    let root = web.site_doc(grown, 0);
    let page = web.n_docs() + spec.new_pages.len();
    spec.new_pages.push(grown);
    spec.add_links.push((root, page));
    spec.add_links.push((page, root));
    page
}

/// `n` local edits and `n / 4` cross-site links in one delta: the seeded
/// sprinkle that makes each seed's web — documents, links and site graph —
/// its own while keeping its shape, and with it the cost of ranking it,
/// the same.
pub fn sprinkle(rng: &mut SplitMix, web: &dyn WebView, n: usize) -> DeltaSpec {
    let mut spec = DeltaSpec::new(DeltaKind::Global);
    for _ in 0..n {
        local_edit(rng, web.n_sites(), web, &mut spec);
    }
    for _ in 0..n / 4 {
        let (site_a, site_b) = (
            site_of_size(rng, web.n_sites(), web, 1),
            site_of_size(rng, web.n_sites(), web, 1),
        );
        spec.add_links
            .push((member(rng, web, site_a), member(rng, web, site_b)));
    }
    spec
}

/// The documents and sites queries are drawn over: fixed at the base web,
/// whose documents the churn stream never removes.
#[derive(Debug, Clone)]
pub struct Targets {
    pub base_docs: usize,
    /// Base sites with at least [`BATCH`] documents, each with its first
    /// [`BATCH`] documents — one shard answers a whole batch.
    pub sites: Vec<(usize, Vec<usize>)>,
}

impl Targets {
    pub fn of(base: &dyn WebView) -> Self {
        let sites = (0..base.n_sites())
            .filter(|&s| base.site_size(s) >= BATCH)
            .map(|s| (s, (0..BATCH).map(|i| base.site_doc(s, i)).collect()))
            .collect();
        Self {
            base_docs: base.n_docs(),
            sites,
        }
    }
}

/// One query. `target` indexes [`Targets::sites`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    Score(usize),
    Batch { target: usize },
    SiteTopK { target: usize },
    Compare { target: usize, i: usize, j: usize },
    TopK,
}

/// Query classes, in the order per-class results are reported.
pub const CLASSES: [&str; 5] = ["score", "batch16", "site_top_k", "compare", "top_k"];

impl QueryOp {
    pub fn class(&self) -> usize {
        match self {
            QueryOp::Score(_) => 0,
            QueryOp::Batch { .. } => 1,
            QueryOp::SiteTopK { .. } => 2,
            QueryOp::Compare { .. } => 3,
            QueryOp::TopK => 4,
        }
    }

    fn hash_into(&self, h: &mut ScheduleHash) {
        h.push(self.class() as u64);
        match *self {
            QueryOp::Score(d) => h.push(d as u64),
            QueryOp::Batch { target } | QueryOp::SiteTopK { target } => h.push(target as u64),
            QueryOp::Compare { target, i, j } => {
                h.push((target * BATCH * BATCH + i * BATCH + j) as u64)
            }
            QueryOp::TopK => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 40 % score, 20 % batch of 16, 15 % site top-k, 15 % compare, 10 %
    /// global top-k.
    Mixed,
    /// The mix without the global top-k: every query is answered by one
    /// shard on the caller's thread.
    Point,
    /// Global top-k alone: every query is a cross-shard gather.
    TopK,
    /// One class alone, by its index in [`CLASSES`].
    Class(usize),
}

pub fn draw(rng: &mut SplitMix, mix: Mix, targets: &Targets) -> QueryOp {
    let class = match mix {
        Mix::TopK => 4,
        Mix::Class(c) => c,
        Mix::Mixed | Mix::Point => {
            let roll = rng.below(if mix == Mix::Mixed { 100 } else { 90 });
            match roll {
                0..=39 => 0,
                40..=59 => 1,
                60..=74 => 2,
                75..=89 => 3,
                _ => 4,
            }
        }
    };
    let target = rng.below(targets.sites.len());
    match class {
        0 => QueryOp::Score(rng.below(targets.base_docs)),
        1 => QueryOp::Batch { target },
        2 => QueryOp::SiteTopK { target },
        3 => {
            let i = rng.below(BATCH);
            let j = (i + 1 + rng.below(BATCH - 1)) % BATCH;
            QueryOp::Compare { target, i, j }
        }
        _ => QueryOp::TopK,
    }
}

/// A fixed list of queries, drawn once so that a measured loop does no
/// generation work.
pub fn draw_many(rng: &mut SplitMix, mix: Mix, targets: &Targets, n: usize) -> Vec<QueryOp> {
    (0..n).map(|_| draw(rng, mix, targets)).collect()
}

/// A Poisson arrival schedule of mixed queries: `(due_ns, query)`.
pub fn arrivals(
    rng: &mut SplitMix,
    targets: &Targets,
    rate_hz: f64,
    seconds: f64,
) -> Vec<(u64, QueryOp)> {
    let n = (rate_hz * seconds) as usize;
    let mut due = 0u64;
    (0..n)
        .map(|_| {
            due += rng.exp_gap_ns(rate_hz);
            (due, draw(rng, Mix::Mixed, targets))
        })
        .collect()
}

pub fn hash_queries<'a>(ops: impl IntoIterator<Item = &'a QueryOp>, h: &mut ScheduleHash) {
    for op in ops {
        op.hash_into(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake web that applies specs to itself, so the stream can be
    /// checked without the product.
    #[derive(Clone)]
    struct FakeWeb {
        sites: Vec<Vec<usize>>,
        n_docs: usize,
    }

    impl FakeWeb {
        fn new(n_sites: usize, per_site: usize) -> Self {
            let sites = (0..n_sites)
                .map(|s| (0..per_site).map(|i| s * per_site + i).collect())
                .collect();
            Self {
                sites,
                n_docs: n_sites * per_site,
            }
        }

        fn apply(&mut self, spec: &DeltaSpec) {
            for _ in 0..spec.new_sites {
                self.sites.push(Vec::new());
            }
            for &site in &spec.new_pages {
                self.sites[site].push(self.n_docs);
                self.n_docs += 1;
            }
            for &(a, b) in spec.add_links.iter().chain(&spec.remove_links) {
                assert!(
                    a < self.n_docs && b < self.n_docs,
                    "link endpoint out of range"
                );
            }
            for &p in &spec.remove_pages {
                let before: usize = self.sites.iter().map(Vec::len).sum();
                for site in &mut self.sites {
                    site.retain(|&d| d != p);
                }
                assert_eq!(self.sites.iter().map(Vec::len).sum::<usize>(), before - 1);
            }
            for &s in &spec.remove_sites {
                assert!(!self.sites[s].is_empty(), "site removed twice");
                self.sites[s].clear();
            }
        }

        fn live_sites(&self) -> usize {
            self.sites.iter().filter(|s| !s.is_empty()).count()
        }
    }

    impl WebView for FakeWeb {
        fn n_docs(&self) -> usize {
            self.n_docs
        }
        fn n_sites(&self) -> usize {
            self.sites.len()
        }
        fn site_size(&self, site: usize) -> usize {
            self.sites[site].len()
        }
        fn site_doc(&self, site: usize, i: usize) -> usize {
            self.sites[site][i]
        }
        fn intra_site_link(&self, doc: usize) -> Option<usize> {
            doc.is_multiple_of(3).then_some(doc + 1)
        }
    }

    fn stream_hash(seed: u64, steps: usize) -> (u64, [usize; 3], FakeWeb) {
        let mut web = FakeWeb::new(400, 5);
        let mut churn = Churn::new(SplitMix::new(seed).fork(1), &web);
        let mut h = ScheduleHash::default();
        let mut kinds = [0usize; 3];
        for _ in 0..steps {
            let spec = churn.next(&web);
            spec.hash_into(&mut h);
            kinds[spec.kind as usize] += 1;
            web.apply(&spec);
        }
        (h.value(), kinds, web)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(stream_hash(3, 200).0, stream_hash(3, 200).0);
        assert_ne!(stream_hash(3, 200).0, stream_hash(4, 200).0);

        let web = FakeWeb::new(40, 25);
        let targets = Targets::of(&web);
        let queries = |seed: u64| {
            let mut rng = SplitMix::new(seed).fork(2);
            let mut h = ScheduleHash::default();
            let sched = arrivals(&mut rng, &targets, 20_000.0, 0.05);
            for (due, op) in &sched {
                h.push(*due);
                hash_queries([op], &mut h);
            }
            (h.value(), sched.len())
        };
        assert_eq!(queries(9), queries(9));
        assert_ne!(queries(9).0, queries(10).0);
        assert_eq!(queries(9).1, 1000);
    }

    #[test]
    fn the_stream_keeps_the_mix_and_the_base_web() {
        let (_, kinds, web) = stream_hash(11, 2000);
        let share = |k: usize| kinds[k] as f64 / 2000.0;
        assert!((share(0) - 0.60).abs() < 0.05, "local {}", share(0));
        assert!((share(1) - 0.25).abs() < 0.05, "global {}", share(1));
        assert!((share(2) - 0.15).abs() < 0.05, "removal {}", share(2));
        // Base documents and sites all survive; live sites stay within 5 %.
        for site in 0..400 {
            assert!(web.site_size(site) >= 5);
        }
        assert!(
            (400..=420).contains(&web.live_sites()),
            "{}",
            web.live_sites()
        );
    }

    #[test]
    fn the_query_mix_has_the_stated_shares_and_valid_targets() {
        let web = FakeWeb::new(40, 25);
        let targets = Targets::of(&web);
        assert_eq!(targets.sites.len(), 40);
        let mut rng = SplitMix::new(5);
        let ops = draw_many(&mut rng, Mix::Mixed, &targets, 20_000);
        let mut counts = [0usize; 5];
        for op in &ops {
            counts[op.class()] += 1;
            if let QueryOp::Compare { i, j, .. } = op {
                assert!(i != j && *i < BATCH && *j < BATCH);
            }
        }
        for (class, want) in [0.40, 0.20, 0.15, 0.15, 0.10].iter().enumerate() {
            let got = counts[class] as f64 / 20_000.0;
            assert!((got - want).abs() < 0.02, "class {class}: {got}");
        }
        assert!(draw_many(&mut rng, Mix::Point, &targets, 2000)
            .iter()
            .all(|op| op.class() != 4));
        assert!(draw_many(&mut rng, Mix::TopK, &targets, 10)
            .iter()
            .all(|op| *op == QueryOp::TopK));
    }
}

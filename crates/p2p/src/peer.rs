//! The protocol side of the distributed SiteRank: [`GroupNode`] owns one
//! *group* of sites' rank entries during the synchronous power iteration.
//! In the flat architecture every group holds exactly one site; in the
//! super-peer architecture a group is a super-peer's whole partition. A
//! site's compute side — its local DocRank (Section 3.2, step 3) — is
//! `lmm-core`'s per-site solve, which needs no protocol at all.

use std::collections::HashMap;

use crate::error::{P2pError, Result};
use lmm_linalg::CsrMatrix;

/// Contributions a group emits in one SiteRank round, already batched per
/// destination group.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEmission {
    /// `(destination group, [(destination site, value)])` batches,
    /// ascending by group.
    pub batches: Vec<(usize, Vec<(usize, f64)>)>,
    /// Rank mass parked on the group's dangling sites this round.
    pub dangling_mass: f64,
    /// Residual of the group's previous update (`f64::INFINITY` before the
    /// first update) — piggybacked to the coordinator.
    pub residual: f64,
}

/// Protocol node owning a group of sites' SiteRank entries.
#[derive(Debug, Clone)]
pub struct GroupNode {
    group: usize,
    sites: Vec<usize>,
    position_of: HashMap<usize, usize>,
    /// Current rank entry per owned site.
    ranks: Vec<f64>,
    /// Accumulated inbound contributions per owned site (current round).
    inbox: Vec<f64>,
    /// Per owned site: normalized outgoing SiteLink row `(dst_site, w)`.
    out_rows: Vec<Vec<(usize, f64)>>,
    n_sites: usize,
    damping: f64,
    residual: f64,
}

impl GroupNode {
    /// Builds a node for `sites`, reading their transition rows from the
    /// row-normalized SiteGraph matrix.
    ///
    /// # Errors
    /// Returns [`P2pError::InvalidConfig`] for an empty group or an
    /// out-of-range site.
    pub fn new(
        group: usize,
        sites: Vec<usize>,
        site_transition: &CsrMatrix,
        damping: f64,
    ) -> Result<Self> {
        if sites.is_empty() {
            return Err(P2pError::InvalidConfig {
                reason: format!("group {group} owns no sites"),
            });
        }
        let n_sites = site_transition.nrows();
        let mut out_rows = Vec::with_capacity(sites.len());
        let mut position_of = HashMap::with_capacity(sites.len());
        for (pos, &s) in sites.iter().enumerate() {
            if s >= n_sites {
                return Err(P2pError::InvalidConfig {
                    reason: format!("group {group} references site {s} >= {n_sites}"),
                });
            }
            let (cols, vals) = site_transition.row(s);
            out_rows.push(cols.iter().copied().zip(vals.iter().copied()).collect());
            position_of.insert(s, pos);
        }
        let init = 1.0 / n_sites as f64;
        let n_owned = sites.len();
        Ok(Self {
            group,
            sites,
            position_of,
            ranks: vec![init; n_owned],
            inbox: vec![0.0; n_owned],
            out_rows,
            n_sites,
            damping,
            residual: f64::INFINITY,
        })
    }

    /// Current `(site, rank)` entries.
    pub fn ranks(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.sites.iter().copied().zip(self.ranks.iter().copied())
    }

    /// Rank entry of one owned site.
    ///
    /// # Panics
    /// Panics if the site is not owned by this group.
    #[cfg(test)]
    fn rank_of(&self, site: usize) -> f64 {
        self.ranks[self.position_of[&site]]
    }

    /// Emits this round's contributions. Contributions whose destination
    /// site belongs to this group short-circuit into the local inbox (no
    /// network traffic) — the super-peer architecture's saving.
    ///
    /// `owner_of[site]` maps each site to its owning group.
    #[must_use]
    pub fn emit(&mut self, owner_of: &[usize]) -> RoundEmission {
        let mut batches: HashMap<usize, Vec<(usize, f64)>> = HashMap::new();
        let mut dangling_mass = 0.0;
        for (pos, out_row) in self.out_rows.iter().enumerate() {
            let rank = self.ranks[pos];
            if out_row.is_empty() {
                dangling_mass += rank;
                continue;
            }
            for &(dst_site, w) in out_row {
                let value = rank * w;
                let dst_group = owner_of[dst_site];
                if dst_group == self.group {
                    let dst_pos = self.position_of[&dst_site];
                    self.inbox[dst_pos] += value;
                } else {
                    batches
                        .entry(dst_group)
                        .or_default()
                        .push((dst_site, value));
                }
            }
        }
        let mut batches: Vec<_> = batches.into_iter().collect();
        batches.sort_unstable_by_key(|&(g, _)| g);
        for (_, entries) in &mut batches {
            entries.sort_unstable_by_key(|a| a.0);
        }
        RoundEmission {
            batches,
            dangling_mass,
            residual: self.residual,
        }
    }

    /// Absorbs a contribution batch from another group.
    ///
    /// # Errors
    /// Returns [`P2pError::UnknownPeer`] if an entry targets a site this
    /// group does not own.
    pub fn absorb(&mut self, entries: &[(usize, f64)]) -> Result<()> {
        for &(site, value) in entries {
            let pos = *self.position_of.get(&site).ok_or(P2pError::UnknownPeer {
                peer: site,
                n_peers: self.n_sites,
            })?;
            self.inbox[pos] += value;
        }
        Ok(())
    }

    /// Applies the PageRank update with the coordinator-provided global
    /// dangling mass: `new = d·(inbox + dangling/N) + (1−d)/N`, records the
    /// residual of the step, and clears the inbox for the next round.
    pub fn apply_update(&mut self, total_dangling_mass: f64) {
        let n = self.n_sites as f64;
        let teleport = (1.0 - self.damping) / n;
        let dangling_share = self.damping * total_dangling_mass / n;
        let mut residual = 0.0;
        for (pos, rank) in self.ranks.iter_mut().enumerate() {
            let new = self.damping * self.inbox[pos] + dangling_share + teleport;
            residual += (new - *rank).abs();
            *rank = new;
            self.inbox[pos] = 0.0;
        }
        self.residual = residual;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::docgraph::{DocGraph, DocGraphBuilder};
    use lmm_graph::sitegraph::{SiteGraph, SiteGraphOptions};
    use lmm_linalg::vec_ops;
    use lmm_rank::pagerank::PageRank;

    fn graph() -> DocGraph {
        let mut b = DocGraphBuilder::new();
        let a0 = b.add_doc("a", "u0");
        let a1 = b.add_doc("a", "u1");
        let c0 = b.add_doc("c", "u2");
        let d0 = b.add_doc("d", "u3");
        b.add_link(a0, a1).unwrap();
        b.add_link(a1, a0).unwrap();
        b.add_link(a1, c0).unwrap();
        b.add_link(c0, d0).unwrap();
        b.add_link(d0, a0).unwrap();
        b.build()
    }

    fn site_transition(g: &DocGraph) -> CsrMatrix {
        SiteGraph::from_doc_graph(g, &SiteGraphOptions::default())
            .to_stochastic()
            .unwrap()
            .into_matrix()
    }

    #[test]
    fn distributed_rounds_match_central_pagerank() {
        // Run the group protocol by hand (3 single-site groups) and compare
        // with PageRank on the site transition matrix.
        let g = graph();
        let m = site_transition(&g);
        let owner_of: Vec<usize> = (0..3).collect();
        let mut groups: Vec<GroupNode> = (0..3)
            .map(|s| GroupNode::new(s, vec![s], &m, 0.85).unwrap())
            .collect();
        for _ in 0..200 {
            let mut total_dangling = 0.0;
            let mut emissions = Vec::new();
            for node in &mut groups {
                let e = node.emit(&owner_of);
                total_dangling += e.dangling_mass;
                emissions.push(e);
            }
            for (src, e) in emissions.into_iter().enumerate() {
                for (dst_group, entries) in e.batches {
                    assert_ne!(dst_group, src);
                    groups[dst_group].absorb(&entries).unwrap();
                }
            }
            for node in &mut groups {
                node.apply_update(total_dangling);
            }
        }
        let distributed: Vec<f64> = (0..3).map(|s| groups[s].rank_of(s)).collect();
        let central = PageRank::new()
            .run(&lmm_linalg::StochasticMatrix::new(m).unwrap())
            .unwrap();
        assert!(vec_ops::l1_diff(&distributed, central.ranking.scores()) < 1e-10);
    }

    #[test]
    fn intra_group_contributions_bypass_network() {
        let g = graph();
        let m = site_transition(&g);
        // One group owning everything: all contributions stay internal.
        let mut node = GroupNode::new(0, vec![0, 1, 2], &m, 0.85).unwrap();
        let emission = node.emit(&[0, 0, 0]);
        assert!(emission.batches.is_empty());
        assert!(emission.residual.is_infinite());
    }

    #[test]
    fn absorb_rejects_foreign_site() {
        let g = graph();
        let m = site_transition(&g);
        let mut node = GroupNode::new(0, vec![0], &m, 0.85).unwrap();
        assert!(matches!(
            node.absorb(&[(2, 0.5)]),
            Err(P2pError::UnknownPeer { peer: 2, .. })
        ));
    }

    #[test]
    fn group_validation() {
        let g = graph();
        let m = site_transition(&g);
        assert!(GroupNode::new(0, vec![], &m, 0.85).is_err());
        assert!(GroupNode::new(0, vec![7], &m, 0.85).is_err());
    }

    #[test]
    fn mass_is_conserved_each_round() {
        let g = graph();
        let m = site_transition(&g);
        let owner_of = vec![0usize, 0, 1];
        let mut groups = vec![
            GroupNode::new(0, vec![0, 1], &m, 0.85).unwrap(),
            GroupNode::new(1, vec![2], &m, 0.85).unwrap(),
        ];
        for _ in 0..5 {
            let mut total_dangling = 0.0;
            let mut emissions = Vec::new();
            for node in &mut groups {
                let e = node.emit(&owner_of);
                total_dangling += e.dangling_mass;
                emissions.push(e);
            }
            for e in emissions {
                for (dst_group, entries) in e.batches {
                    groups[dst_group].absorb(&entries).unwrap();
                }
            }
            for node in &mut groups {
                node.apply_update(total_dangling);
            }
            let total: f64 = groups.iter().flat_map(|n| n.ranks().map(|(_, r)| r)).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }
}

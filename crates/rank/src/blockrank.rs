//! The BlockRank baseline (Kamvar, Haveliwala, Manning & Golub 2003).
//!
//! BlockRank exploits the block structure of the web: local PageRanks per
//! block, a block-level graph whose edge weights are **sums of local
//! PageRank values of the source pages**, and a warm-started global
//! PageRank. The paper (Section 3.2) contrasts this with its own SiteGraph:
//! BlockRank's block weights depend on an earlier computation stage
//! (serializing the pipeline), while the LMM SiteGraph only counts SiteLinks
//! and so allows SiteRank and local DocRanks to run in parallel.
//!
//! Implemented faithfully so the experiment harness can compare both the
//! quality and the dependency structure of the two aggregation schemes.

use crate::error::{RankError, Result};
use crate::pagerank::{PageRank, PageRankConfig, PageRankResult};
use crate::ranking::Ranking;
use lmm_linalg::{CooMatrix, CsrMatrix, StochasticMatrix};

/// Per-block view of a partitioned graph: the intra-block adjacency and the
/// local→global index mapping.
#[derive(Debug, Clone, PartialEq)]
struct BlockSubgraph {
    /// Intra-block adjacency (dimensions = block size).
    pub adjacency: CsrMatrix,
    /// `members[local] = global` index mapping, ascending.
    pub members: Vec<usize>,
}

/// Splits `adjacency` into per-block intra-block subgraphs.
///
/// # Errors
/// Returns [`RankError::InvalidPartition`] when `block_of` has the wrong
/// length or references a block `>= n_blocks`, and [`RankError::Empty`] when
/// some block has no members.
fn partition_subgraphs(
    adjacency: &CsrMatrix,
    block_of: &[usize],
    n_blocks: usize,
) -> Result<Vec<BlockSubgraph>> {
    let n = adjacency.nrows();
    if block_of.len() != n {
        return Err(RankError::InvalidPartition {
            reason: format!(
                "block_of has length {} but the graph has {n} nodes",
                block_of.len()
            ),
        });
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_blocks];
    for (node, &b) in block_of.iter().enumerate() {
        if b >= n_blocks {
            return Err(RankError::InvalidPartition {
                reason: format!("node {node} assigned to block {b} >= {n_blocks}"),
            });
        }
        members[b].push(node);
    }
    if let Some(empty) = members.iter().position(Vec::is_empty) {
        return Err(RankError::InvalidPartition {
            reason: format!("block {empty} has no members"),
        });
    }
    // Global -> local index within the node's own block.
    let mut local_of = vec![0usize; n];
    for mem in &members {
        for (local, &global) in mem.iter().enumerate() {
            local_of[global] = local;
        }
    }
    let mut blocks = Vec::with_capacity(n_blocks);
    for (b, mem) in members.iter().enumerate() {
        let mut coo = CooMatrix::new(mem.len(), mem.len());
        for &global in mem {
            let (cols, vals) = adjacency.row(global);
            for (&dst, &w) in cols.iter().zip(vals) {
                if block_of[dst] == b {
                    coo.push(local_of[global], local_of[dst], w);
                }
            }
        }
        blocks.push(BlockSubgraph {
            adjacency: coo.to_csr(),
            members: mem.clone(),
        });
    }
    Ok(blocks)
}

/// Result of the BlockRank pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRankResult {
    /// Local PageRank within each block (indexed by block, then local id).
    pub local_ranks: Vec<Ranking>,
    /// The block-level ranking (over blocks).
    pub block_ranking: Ranking,
    /// The aggregated approximation `x0(d) = b(block(d)) * l(d)` over all
    /// nodes — BlockRank's stage-3 output.
    pub approximation: Ranking,
    /// The refined global PageRank warm-started from `approximation`.
    pub refined: PageRankResult,
    /// Iterations the warm-started global phase needed.
    pub warm_iterations: usize,
}

/// Runs the BlockRank pipeline on a global adjacency matrix partitioned by
/// `block_of`.
///
/// # Errors
/// Propagates partition errors from `partition_subgraphs` and PageRank
/// errors from each stage.
pub fn blockrank(
    adjacency: &CsrMatrix,
    block_of: &[usize],
    n_blocks: usize,
    config: &PageRankConfig,
) -> Result<BlockRankResult> {
    let n = adjacency.nrows();
    if n == 0 {
        return Err(RankError::Empty);
    }
    let blocks = partition_subgraphs(adjacency, block_of, n_blocks)?;

    // Stage 1: local PageRank per block.
    let mut local_ranks = Vec::with_capacity(n_blocks);
    for block in &blocks {
        let result =
            PageRank::from_config(config.clone()).run_adjacency(block.adjacency.clone())?;
        local_ranks.push(result.ranking);
    }
    // Expand local ranks to a global-indexed lookup.
    let mut local_score = vec![0.0f64; n];
    for (block, ranks) in blocks.iter().zip(&local_ranks) {
        for (local, &global) in block.members.iter().enumerate() {
            local_score[global] = ranks.score(local);
        }
    }

    // Stage 2: block graph weighted by local PageRank of source pages.
    // B[I][J] = sum over edges (i in I, j in J) of l(i) * M_ij, where M is
    // the row-normalized adjacency. This is the data dependency the LMM
    // SiteGraph avoids.
    let row_sums = adjacency.row_sums();
    let mut bcoo = CooMatrix::new(n_blocks, n_blocks);
    for (src, &bsrc) in block_of.iter().enumerate() {
        if row_sums[src] == 0.0 {
            continue;
        }
        let (cols, vals) = adjacency.row(src);
        let scale = local_score[src] / row_sums[src];
        for (&dst, &w) in cols.iter().zip(vals) {
            bcoo.push(bsrc, block_of[dst], scale * w);
        }
    }
    let block_result = PageRank::from_config(config.clone()).run_adjacency(bcoo.to_csr())?;
    let block_ranking = block_result.ranking;

    // Stage 3: aggregate approximation.
    let weights: Vec<f64> = (0..n)
        .map(|d| block_ranking.score(block_of[d]) * local_score[d])
        .collect();
    let approximation = Ranking::from_weights(weights)?;

    // Stage 4: warm-started global PageRank.
    let m = StochasticMatrix::from_adjacency(adjacency.clone())?;
    let refined = PageRank::from_config(config.clone())
        .initial(approximation.scores().to_vec())
        .run(&m)?;
    let warm_iterations = refined.report.iterations;

    Ok(BlockRankResult {
        local_ranks,
        block_ranking,
        approximation,
        refined,
        warm_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_linalg::vec_ops;

    /// Two 3-node blocks: a cycle in block 0, a chain in block 1, with
    /// cross links 2 -> 3 and 5 -> 0.
    fn two_block_graph() -> (CsrMatrix, Vec<usize>) {
        let mut coo = CooMatrix::new(6, 6);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 0, 1.0);
        coo.push(3, 4, 1.0);
        coo.push(4, 5, 1.0);
        coo.push(5, 3, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(5, 0, 1.0);
        (coo.to_csr(), vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn partition_extracts_intra_block_edges_only() {
        let (adj, block_of) = two_block_graph();
        let blocks = partition_subgraphs(&adj, &block_of, 2).unwrap();
        assert_eq!(blocks[0].members, vec![0, 1, 2]);
        assert_eq!(blocks[1].members, vec![3, 4, 5]);
        // Each block keeps its 3-cycle but loses the cross edge.
        assert_eq!(blocks[0].adjacency.nnz(), 3);
        assert_eq!(blocks[1].adjacency.nnz(), 3);
    }

    #[test]
    fn partition_validates_labels() {
        let (adj, _) = two_block_graph();
        assert!(partition_subgraphs(&adj, &[0, 0, 0], 1).is_err()); // wrong length
        assert!(partition_subgraphs(&adj, &[0, 0, 0, 0, 0, 7], 2).is_err()); // bad label
        assert!(partition_subgraphs(&adj, &[0; 6], 2).is_err()); // empty block 1
    }

    #[test]
    fn blockrank_produces_distributions() {
        let (adj, block_of) = two_block_graph();
        let r = blockrank(&adj, &block_of, 2, &PageRankConfig::default()).unwrap();
        assert!((r.approximation.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((r.block_ranking.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(r.local_ranks.len(), 2);
    }

    #[test]
    fn refined_matches_flat_pagerank() {
        let (adj, block_of) = two_block_graph();
        let r = blockrank(&adj, &block_of, 2, &PageRankConfig::default()).unwrap();
        let flat = PageRank::new().run_adjacency(adj).unwrap();
        assert!(
            vec_ops::l1_diff(r.refined.ranking.scores(), flat.ranking.scores()) < 1e-9,
            "warm-started global PageRank must converge to the flat fixed point"
        );
    }

    #[test]
    fn warm_start_not_slower_than_cold() {
        let (adj, block_of) = two_block_graph();
        let r = blockrank(&adj, &block_of, 2, &PageRankConfig::default()).unwrap();
        let flat = PageRank::new().run_adjacency(adj).unwrap();
        // The approximation is close to the fixed point, so the warm start
        // should need at most as many iterations (+1 slack for ties).
        assert!(r.warm_iterations <= flat.report.iterations + 1);
    }

    #[test]
    fn symmetric_blocks_rank_equally() {
        // Two identical 2-cycles with symmetric cross links.
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        coo.push(0, 2, 1.0);
        coo.push(2, 0, 1.0);
        let r = blockrank(&coo.to_csr(), &[0, 0, 1, 1], 2, &PageRankConfig::default()).unwrap();
        assert!((r.block_ranking.score(0) - r.block_ranking.score(1)).abs() < 1e-9);
    }
}

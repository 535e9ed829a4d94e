//! Structural analysis of transition matrices: strongly connected
//! components, periodicity, irreducibility and primitivity.
//!
//! The paper's Partition Theorem requires the phase matrix `Y` to be
//! *primitive* (irreducible and aperiodic); this module provides the checks
//! that let [`lmm-core`](../lmm_core/index.html) enforce that precondition
//! instead of silently producing an oscillating power iteration.

use crate::csr::CsrMatrix;
use crate::error::{LinalgError, Result};

/// Strongly-connected-component decomposition of a square sparse matrix's
/// positive sparsity pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SccDecomposition {
    /// Component id of each node; ids are in reverse topological order of the
    /// condensation (Tarjan numbering).
    pub component_of: Vec<usize>,
    /// Number of components.
    pub count: usize,
}

impl SccDecomposition {
    /// Groups node indices by component id.
    #[cfg(test)]
    fn components(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.count];
        for (node, &c) in self.component_of.iter().enumerate() {
            groups[c].push(node);
        }
        groups
    }
}

/// Computes the strongly connected components of the directed graph whose
/// edges are the strictly positive entries of `m`, using an iterative
/// Tarjan algorithm (no recursion, safe for web-scale graphs).
///
/// # Errors
/// Returns [`LinalgError::NotSquare`] for a non-square matrix.
fn strongly_connected_components(m: &CsrMatrix) -> Result<SccDecomposition> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.nrows(),
            cols: m.ncols(),
        });
    }
    let n = m.nrows();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSET; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut count = 0usize;

    // Explicit DFS frame: (node, position within its adjacency list).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let (cols, vals) = m.row(v);
            let mut advanced = false;
            while *pos < cols.len() {
                let w = cols[*pos];
                let weight = vals[*pos];
                *pos += 1;
                if weight <= 0.0 {
                    continue;
                }
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            }
            if advanced {
                continue;
            }
            // v is finished: pop the frame, close the component if v is a root.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[v]);
            }
            if lowlink[v] == index[v] {
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp[w] = count;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    Ok(SccDecomposition {
        component_of: comp,
        count,
    })
}

/// Returns `true` when the positive pattern of `m` is strongly connected
/// (the Markov chain is irreducible).
///
/// # Errors
/// Returns [`LinalgError::NotSquare`] for a non-square matrix.
pub fn is_irreducible(m: &CsrMatrix) -> Result<bool> {
    Ok(strongly_connected_components(m)?.count == 1 && m.nrows() > 0)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Computes the period of an irreducible chain: the gcd of all cycle lengths
/// in the positive pattern of `m`.
///
/// Uses the BFS-level criterion: for a BFS labeling `level`, the period is
/// `gcd over all positive edges (u, v) of |level[u] + 1 - level[v]|`.
///
/// # Errors
/// * [`LinalgError::NotSquare`] for a non-square matrix;
/// * [`LinalgError::Empty`] for an empty matrix;
/// * [`LinalgError::NotPrimitive`] when the chain is not irreducible
///   (the period of a reducible chain is not well defined as a single gcd).
pub fn period(m: &CsrMatrix) -> Result<usize> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.nrows(),
            cols: m.ncols(),
        });
    }
    let n = m.nrows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let scc = strongly_connected_components(m)?;
    if scc.count != 1 {
        return Err(LinalgError::NotPrimitive {
            components: scc.count,
            period: 0,
        });
    }
    // BFS from node 0 over positive edges.
    let mut level = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    level[0] = 0;
    queue.push_back(0usize);
    while let Some(u) = queue.pop_front() {
        let (cols, vals) = m.row(u);
        for (&v, &w) in cols.iter().zip(vals) {
            if w > 0.0 && level[v] == usize::MAX {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    let mut g: u64 = 0;
    for (u, v, w) in m.iter() {
        if w <= 0.0 {
            continue;
        }
        let d = level[u] as i64 + 1 - level[v] as i64;
        g = gcd(g, d.unsigned_abs());
    }
    // A strongly connected graph with at least one edge always yields g >= 1.
    Ok(g.max(1) as usize)
}

/// Full structural report for a square transition matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureReport {
    /// Number of strongly connected components.
    pub components: usize,
    /// Period of the chain when irreducible, `None` otherwise.
    pub period: Option<usize>,
    /// Whether the chain is irreducible (one SCC).
    pub irreducible: bool,
    /// Whether the chain is aperiodic (period 1; `false` when reducible).
    pub aperiodic: bool,
    /// Whether the matrix is primitive: irreducible and aperiodic.
    pub primitive: bool,
}

impl std::fmt::Display for StructureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "components={}, period={:?}, primitive={}",
            self.components, self.period, self.primitive
        )
    }
}

/// Analyzes irreducibility, periodicity and primitivity of `m` in one pass.
///
/// # Errors
/// Returns [`LinalgError::NotSquare`] for a non-square matrix and
/// [`LinalgError::Empty`] for an empty one.
pub fn analyze(m: &CsrMatrix) -> Result<StructureReport> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.nrows(),
            cols: m.ncols(),
        });
    }
    if m.nrows() == 0 {
        return Err(LinalgError::Empty);
    }
    let scc = strongly_connected_components(m)?;
    if scc.count != 1 {
        return Ok(StructureReport {
            components: scc.count,
            period: None,
            irreducible: false,
            aperiodic: false,
            primitive: false,
        });
    }
    let p = period(m)?;
    Ok(StructureReport {
        components: 1,
        period: Some(p),
        irreducible: true,
        aperiodic: p == 1,
        primitive: p == 1,
    })
}

/// Returns `true` when `m` is primitive (irreducible and aperiodic), the
/// precondition of the paper's Theorem 2 for the phase matrix `Y`.
///
/// # Errors
/// Returns [`LinalgError::NotSquare`] or [`LinalgError::Empty`] as in
/// [`analyze`].
///
/// # Example
/// ```
/// use lmm_linalg::{DenseMatrix, is_primitive};
/// # fn main() -> Result<(), lmm_linalg::LinalgError> {
/// let y = DenseMatrix::from_rows(&[
///     vec![0.1, 0.9],
///     vec![0.6, 0.4],
/// ])?;
/// assert!(is_primitive(&y.to_csr())?);
/// # Ok(())
/// # }
/// ```
pub fn is_primitive(m: &CsrMatrix) -> Result<bool> {
    Ok(analyze(m)?.primitive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;

    fn csr_from_edges(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn single_cycle_is_one_component() {
        let m = csr_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let scc = strongly_connected_components(&m).unwrap();
        assert_eq!(scc.count, 1);
        assert!(is_irreducible(&m).unwrap());
    }

    #[test]
    fn chain_has_n_components() {
        let m = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let scc = strongly_connected_components(&m).unwrap();
        assert_eq!(scc.count, 3);
        assert!(!is_irreducible(&m).unwrap());
    }

    #[test]
    fn two_cycles_bridged_one_way() {
        // {0,1} cycle, {2,3} cycle, bridge 1 -> 2: two SCCs.
        let m = csr_from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = strongly_connected_components(&m).unwrap();
        assert_eq!(scc.count, 2);
        let comps = scc.components();
        let mut sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2]);
        // Nodes 0,1 share a component; nodes 2,3 share a component.
        assert_eq!(scc.component_of[0], scc.component_of[1]);
        assert_eq!(scc.component_of[2], scc.component_of[3]);
        assert_ne!(scc.component_of[0], scc.component_of[2]);
    }

    #[test]
    fn zero_weight_edges_ignored() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 0.0); // structurally stored but weight zero
        let m = coo.to_csr();
        let scc = strongly_connected_components(&m).unwrap();
        assert_eq!(scc.count, 2);
    }

    #[test]
    fn period_of_pure_cycle_is_length() {
        for n in 2..6 {
            let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let m = csr_from_edges(n, &edges);
            assert_eq!(period(&m).unwrap(), n, "cycle of length {n}");
        }
    }

    #[test]
    fn self_loop_makes_aperiodic() {
        let m = csr_from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 0)]);
        assert_eq!(period(&m).unwrap(), 1);
        assert!(is_primitive(&m).unwrap());
    }

    #[test]
    fn two_cycle_lengths_gcd() {
        // Cycles of length 2 (0-1) and 4 (0-1-2-3): gcd = 2.
        let m = csr_from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(period(&m).unwrap(), 2);
        let rep = analyze(&m).unwrap();
        assert!(rep.irreducible);
        assert!(!rep.aperiodic);
        assert!(!rep.primitive);
    }

    #[test]
    fn period_rejects_reducible() {
        let m = csr_from_edges(2, &[(0, 1)]);
        assert!(matches!(
            period(&m),
            Err(LinalgError::NotPrimitive { components: 2, .. })
        ));
    }

    #[test]
    fn positive_dense_matrix_is_primitive() {
        let m = DenseMatrix::from_rows(&[
            vec![0.1, 0.3, 0.6],
            vec![0.2, 0.4, 0.4],
            vec![0.3, 0.5, 0.2],
        ])
        .unwrap()
        .to_csr();
        let rep = analyze(&m).unwrap();
        assert!(rep.primitive);
        assert_eq!(rep.period, Some(1));
        assert_eq!(rep.components, 1);
    }

    #[test]
    fn analyze_reducible_report() {
        let m = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let rep = analyze(&m).unwrap();
        assert_eq!(rep.components, 3);
        assert_eq!(rep.period, None);
        assert!(!rep.primitive);
        assert!(rep.to_string().contains("components=3"));
    }

    #[test]
    fn isolated_node_not_irreducible() {
        let m = csr_from_edges(2, &[(0, 0)]);
        assert!(!is_irreducible(&m).unwrap());
    }

    #[test]
    fn empty_matrix_errors() {
        let m = CooMatrix::new(0, 0).to_csr();
        assert!(analyze(&m).is_err());
    }

    #[test]
    fn large_path_graph_no_stack_overflow() {
        // 200k-node path exercises the iterative DFS (a recursive Tarjan
        // would overflow the stack).
        let n = 200_000;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let m = csr_from_edges(n, &edges);
        let scc = strongly_connected_components(&m).unwrap();
        assert_eq!(scc.count, n);
    }
}

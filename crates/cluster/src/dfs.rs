//! An HDFS-like distributed file system model (placement + locality).
//!
//! The DFS does block bookkeeping only; the actual I/O flows are issued by
//! the DAG engine against the disks chosen here. Placement follows HDFS
//! semantics: the first replica lands on the writer's node (or round-robin
//! for generated input data), the remaining replicas on distinct random
//! nodes.

use std::collections::BTreeMap;

use sae_sim::rng::DeterministicRng;

/// One block of a DFS file.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// Block index within its file.
    pub index: usize,
    /// Block size in MB (the final block may be smaller).
    pub size_mb: f64,
    /// Nodes holding a replica, first entry is the primary.
    pub replicas: Vec<usize>,
}

/// Metadata of a DFS file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileInfo {
    /// File name.
    pub name: String,
    /// Total size in MB.
    pub size_mb: f64,
    /// The file's blocks in order.
    pub blocks: Vec<BlockInfo>,
}

/// The distributed file system namespace.
///
/// # Examples
///
/// ```
/// use sae_cluster::Dfs;
///
/// let mut dfs = Dfs::new(128, 3, 1);
/// dfs.create_file("data", 300.0, 4);
/// let file = dfs.file("data").unwrap();
/// assert_eq!(file.blocks.len(), 3); // 128 + 128 + 44
/// assert!(file.blocks.iter().all(|b| b.replicas.len() == 3));
/// ```
#[derive(Debug, Clone)]
pub struct Dfs {
    block_size_mb: f64,
    replication: usize,
    seed: u64,
    files: BTreeMap<String, FileInfo>,
}

impl Dfs {
    /// Creates a DFS with the given block size (MB) and replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `block_size_mb` or `replication` is zero.
    pub fn new(block_size_mb: u64, replication: usize, seed: u64) -> Self {
        assert!(block_size_mb > 0, "block size must be positive");
        assert!(replication > 0, "replication factor must be positive");
        Self {
            block_size_mb: block_size_mb as f64,
            replication,
            seed,
            files: BTreeMap::new(),
        }
    }

    /// Effective replication on a cluster of `nodes` nodes (capped, since a
    /// node stores at most one replica of a block).
    pub(crate) fn effective_replication(&self, nodes: usize) -> usize {
        self.replication.min(nodes)
    }

    /// Creates a file of `size_mb`, placing block replicas across `nodes`
    /// nodes (round-robin primaries, random distinct secondaries).
    ///
    /// Returns the created file's metadata.
    ///
    /// # Panics
    ///
    /// Panics if the file already exists, `size_mb` is not positive, or
    /// `nodes` is zero.
    pub fn create_file(&mut self, name: &str, size_mb: f64, nodes: usize) -> &FileInfo {
        assert!(
            !self.files.contains_key(name),
            "file {name:?} already exists"
        );
        assert!(size_mb > 0.0, "file size must be positive");
        assert!(nodes > 0, "cluster must have nodes");
        let mut rng = DeterministicRng::seed(
            self.seed
                ^ name.bytes().fold(0u64, |h, b| {
                    h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64)
                }),
        );
        let replication = self.effective_replication(nodes);
        let n_blocks = (size_mb / self.block_size_mb).ceil() as usize;
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut remaining = size_mb;
        for index in 0..n_blocks {
            let size = remaining.min(self.block_size_mb);
            remaining -= size;
            let primary = index % nodes;
            let mut replicas = vec![primary];
            let mut candidates: Vec<usize> = (0..nodes).filter(|&n| n != primary).collect();
            rng.shuffle(&mut candidates);
            replicas.extend(candidates.into_iter().take(replication - 1));
            blocks.push(BlockInfo {
                index,
                size_mb: size,
                replicas,
            });
        }
        self.files.insert(
            name.to_owned(),
            FileInfo {
                name: name.to_owned(),
                size_mb,
                blocks,
            },
        );
        self.files.get(name).expect("just inserted")
    }

    /// Looks up a file by name.
    pub fn file(&self, name: &str) -> Option<&FileInfo> {
        self.files.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_count_and_sizes() {
        let mut dfs = Dfs::new(128, 1, 0);
        dfs.create_file("f", 300.0, 2);
        let f = dfs.file("f").unwrap();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.blocks[0].size_mb, 128.0);
        assert_eq!(f.blocks[1].size_mb, 128.0);
        assert!((f.blocks[2].size_mb - 44.0).abs() < 1e-9);
        let total: f64 = f.blocks.iter().map(|b| b.size_mb).sum();
        assert!((total - 300.0).abs() < 1e-9);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let mut dfs = Dfs::new(64, 3, 7);
        dfs.create_file("f", 6400.0, 8);
        for block in &dfs.file("f").unwrap().blocks {
            let mut nodes = block.replicas.clone();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let mut dfs = Dfs::new(64, 4, 0);
        dfs.create_file("f", 128.0, 2);
        for block in &dfs.file("f").unwrap().blocks {
            assert_eq!(block.replicas.len(), 2);
        }
    }

    #[test]
    fn full_replication_gives_full_locality() {
        // Paper setup: replication = #nodes so every executor reads locally.
        let mut dfs = Dfs::new(128, 4, 3);
        dfs.create_file("input", 2048.0, 4);
        for block in &dfs.file("input").unwrap().blocks {
            for node in 0..4 {
                assert!(block.replicas.contains(&node));
            }
        }
    }

    #[test]
    fn primaries_round_robin() {
        let mut dfs = Dfs::new(128, 1, 0);
        dfs.create_file("f", 512.0, 4);
        let primaries: Vec<usize> = dfs
            .file("f")
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.replicas[0])
            .collect();
        assert_eq!(primaries, vec![0, 1, 2, 3]);
    }

    #[test]
    fn placement_is_deterministic() {
        let build = || {
            let mut dfs = Dfs::new(64, 2, 11);
            dfs.create_file("f", 640.0, 5);
            dfs.file("f").unwrap().clone()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_create_rejected() {
        let mut dfs = Dfs::new(64, 1, 0);
        dfs.create_file("f", 64.0, 1);
        dfs.create_file("f", 64.0, 1);
    }
}

//! The NameNode: directory tree, block map, placement policy, and the
//! Virtual Mapping Table for dummy blocks.

use std::collections::BTreeMap;
use std::fmt;

use simnet::NodeId;

use crate::block::{Block, BlockId, BlockKind, VirtualBlock};

/// Namespace errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    NotFound(String),
    NotADirectory(String),
    NotAFile(String),
    AlreadyExists(String),
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsError::NotFound(p) => write!(f, "no such path: {p}"),
            NsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            NsError::NotAFile(p) => write!(f, "not a file: {p}"),
            NsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
        }
    }
}

impl std::error::Error for NsError {}

#[derive(Clone, Debug)]
enum INode {
    File(Vec<Block>),
    Dir(BTreeMap<String, INode>),
}

/// One namespace mutation, as recorded in the write-ahead edit log.
///
/// Ops are logged *before* they are applied. A failed op (e.g. creating an
/// existing file) therefore appears in the log too; replay drives it through
/// the same code path, where it fails identically, so recovery converges on
/// the killed namenode's exact state either way.
#[derive(Clone, Debug, PartialEq)]
pub enum EditOp {
    Mkdirs {
        path: String,
    },
    CreateFile {
        path: String,
    },
    AddBlock {
        path: String,
        len: u64,
        locations: Vec<NodeId>,
        crc: u32,
    },
    AddDummyBlock {
        path: String,
        len: u64,
        descriptor: VirtualBlock,
    },
    Rename {
        from: String,
        to: String,
    },
    Delete {
        path: String,
    },
}

/// Namespace snapshot taken at checkpoint time (the `fsimage` file).
#[derive(Clone, Debug)]
struct FsImage {
    root: BTreeMap<String, INode>,
    next_block: u64,
    rr: usize,
}

/// The NameNode's persistent state: the last fsimage checkpoint plus the
/// tail of edits since. Conceptually this lives on the master's disk — it
/// survives a simulated namenode kill, and [`NameNode::recover`] rebuilds
/// the full namespace from it.
#[derive(Clone, Debug)]
pub struct EditLog {
    fsimage: Option<FsImage>,
    edits: Vec<EditOp>,
    /// Automatic checkpoint threshold: once this many edits accumulate, the
    /// namenode writes a new fsimage and truncates the log.
    pub checkpoint_interval: usize,
    /// Checkpoints taken so far (diagnostics).
    pub checkpoints: u64,
}

impl EditLog {
    fn new(checkpoint_interval: usize) -> EditLog {
        EditLog {
            fsimage: None,
            edits: Vec::new(),
            checkpoint_interval: checkpoint_interval.max(1),
            checkpoints: 0,
        }
    }

    pub fn has_checkpoint(&self) -> bool {
        self.fsimage.is_some()
    }

    /// The edit tail (oldest first) — what replay applies after the image.
    pub fn edits(&self) -> &[EditOp] {
        &self.edits
    }
}

/// Listing entry (`FileStatus` in Hadoop).
#[derive(Clone, Debug, PartialEq)]
pub struct FileStatus {
    pub path: String,
    pub is_dir: bool,
    /// Sum of block lengths (real bytes).
    pub len: u64,
    pub n_blocks: usize,
}

/// The HDFS master: namespace + block map + placement.
#[derive(Debug)]
pub struct NameNode {
    root: BTreeMap<String, INode>,
    next_block: u64,
    n_nodes: usize,
    /// Default split/placement unit in real bytes (`dfs.blocksize`).
    pub block_size: usize,
    /// Replication factor (`dfs.replication`; the paper sets 1).
    pub replication: usize,
    /// Round-robin cursor for non-local replica placement.
    rr: usize,
    /// Metadata operations served (for diagnostics / RPC accounting).
    pub ops: u64,
    /// Write-ahead edit log + fsimage checkpoints (crash consistency).
    journal: EditLog,
}

/// Default edits between automatic fsimage checkpoints.
const DEFAULT_CHECKPOINT_INTERVAL: usize = 64;

fn split_path(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// Join the first `i + 1` path components for error messages.
fn join_prefix(parts: &[&str], i: usize) -> String {
    parts
        .iter()
        .take(i + 1)
        .copied()
        .collect::<Vec<_>>()
        .join("/")
}

impl NameNode {
    pub fn new(n_nodes: usize, block_size: usize, replication: usize) -> NameNode {
        assert!(n_nodes > 0, "need at least one DataNode");
        assert!(block_size > 0, "block size must be positive");
        assert!(
            replication >= 1 && replication <= n_nodes,
            "replication {replication} must be in 1..={n_nodes}"
        );
        NameNode {
            root: BTreeMap::new(),
            next_block: 0,
            n_nodes,
            block_size,
            replication,
            rr: 0,
            ops: 0,
            journal: EditLog::new(DEFAULT_CHECKPOINT_INTERVAL),
        }
    }

    /// The persistent journal (what survives a namenode kill).
    pub fn journal(&self) -> &EditLog {
        &self.journal
    }

    /// Write an fsimage snapshot and truncate the edit log (the secondary
    /// namenode's job in real Hadoop).
    pub fn checkpoint(&mut self) {
        self.journal.fsimage = Some(FsImage {
            root: self.root.clone(),
            next_block: self.next_block,
            rr: self.rr,
        });
        self.journal.edits.clear();
        self.journal.checkpoints += 1;
    }

    fn maybe_checkpoint(&mut self) {
        if self.journal.edits.len() >= self.journal.checkpoint_interval {
            self.checkpoint();
        }
    }

    fn log_edit(&mut self, op: EditOp) {
        self.journal.edits.push(op);
    }

    /// Rebuild a NameNode from a journal — the crash-recovery path. Starts
    /// from the last fsimage checkpoint (or an empty namespace) and replays
    /// the edit tail through the normal mutation code, so the recovered
    /// namespace — virtual files, dummy blocks, block→PFS mappings — is
    /// identical to the killed namenode's (compare [`Self::namespace_dump`]).
    pub fn recover(
        journal: &EditLog,
        n_nodes: usize,
        block_size: usize,
        replication: usize,
    ) -> NameNode {
        let mut nn = NameNode::new(n_nodes, block_size, replication);
        nn.journal.checkpoint_interval = journal.checkpoint_interval;
        nn.journal.checkpoints = journal.checkpoints;
        if let Some(img) = &journal.fsimage {
            nn.root = img.root.clone();
            nn.next_block = img.next_block;
            nn.rr = img.rr;
            nn.journal.fsimage = Some(img.clone());
        }
        for op in &journal.edits {
            nn.replay(op.clone());
        }
        nn
    }

    /// Apply one logged op through the public mutators (which re-log it, so
    /// the recovered journal tail matches the original's). Failures are
    /// deliberately ignored: an op that failed live fails identically here.
    fn replay(&mut self, op: EditOp) {
        let _ = match op {
            EditOp::Mkdirs { path } => self.mkdirs(&path),
            EditOp::CreateFile { path } => self.create_file(&path),
            EditOp::AddBlock {
                path,
                len,
                locations,
                crc,
            } => self.add_block(&path, len, locations, crc).map(|_| ()),
            EditOp::AddDummyBlock {
                path,
                len,
                descriptor,
            } => self.add_dummy_block(&path, len, descriptor).map(|_| ()),
            EditOp::Rename { from, to } => self.rename(&from, &to),
            EditOp::Delete { path } => self.delete(&path).map(|_| ()),
        };
    }

    /// Deterministic dump of the entire namespace: directory tree plus
    /// per-file block lists (ids, lengths, checksums, locations, virtual
    /// descriptors). Two namenodes with equal dumps serve identical
    /// metadata; the kill/restart test compares dumps across recovery.
    pub fn namespace_dump(&self) -> String {
        fn walk(prefix: &str, nodes: &BTreeMap<String, INode>, out: &mut String) {
            for (name, node) in nodes {
                let path = if prefix.is_empty() {
                    name.clone()
                } else {
                    format!("{prefix}/{name}")
                };
                match node {
                    INode::Dir(children) => {
                        out.push_str(&format!("dir {path}\n"));
                        walk(&path, children, out);
                    }
                    INode::File(blocks) => {
                        out.push_str(&format!("file {path} {blocks:?}\n"));
                    }
                }
            }
        }
        let mut out = format!("next_block={}\n", self.next_block);
        walk("", &self.root, &mut out);
        out
    }

    fn dir_mut(
        &mut self,
        parts: &[&str],
        create: bool,
    ) -> Result<&mut BTreeMap<String, INode>, NsError> {
        let mut cur = &mut self.root;
        for (i, part) in parts.iter().enumerate() {
            if create && !cur.contains_key(*part) {
                cur.insert(part.to_string(), INode::Dir(BTreeMap::new()));
            }
            match cur.get_mut(*part) {
                Some(INode::Dir(children)) => cur = children,
                Some(INode::File(_)) => return Err(NsError::NotADirectory(join_prefix(parts, i))),
                None => return Err(NsError::NotFound(join_prefix(parts, i))),
            }
        }
        Ok(cur)
    }

    fn node(&self, path: &str) -> Option<&INode> {
        let parts = split_path(path);
        let mut cur = &self.root;
        let (last, dirs) = parts.split_last()?;
        for part in dirs {
            match cur.get(*part) {
                Some(INode::Dir(children)) => cur = children,
                _ => return None,
            }
        }
        cur.get(*last)
    }

    /// `hdfs dfs -mkdir -p`.
    pub fn mkdirs(&mut self, path: &str) -> Result<(), NsError> {
        self.ops += 1;
        self.log_edit(EditOp::Mkdirs {
            path: path.to_string(),
        });
        let parts = split_path(path);
        let r = self.dir_mut(&parts, true).map(|_| ());
        self.maybe_checkpoint();
        r
    }

    pub fn exists(&self, path: &str) -> bool {
        if split_path(path).is_empty() {
            return true;
        }
        self.node(path).is_some()
    }

    pub fn is_dir(&self, path: &str) -> bool {
        if split_path(path).is_empty() {
            return true;
        }
        matches!(self.node(path), Some(INode::Dir(_)))
    }

    pub fn is_file(&self, path: &str) -> bool {
        matches!(self.node(path), Some(INode::File(_)))
    }

    /// Create an empty file (parents created as needed). Fails if the path
    /// already exists.
    pub fn create_file(&mut self, path: &str) -> Result<(), NsError> {
        self.ops += 1;
        self.log_edit(EditOp::CreateFile {
            path: path.to_string(),
        });
        let r = self.create_file_inner(path);
        self.maybe_checkpoint();
        r
    }

    fn create_file_inner(&mut self, path: &str) -> Result<(), NsError> {
        let parts = split_path(path);
        let (name, dirs) = parts
            .split_last()
            .ok_or_else(|| NsError::NotAFile(path.to_string()))?;
        let dir = self.dir_mut(dirs, true)?;
        if dir.contains_key(*name) {
            return Err(NsError::AlreadyExists(path.to_string()));
        }
        dir.insert(name.to_string(), INode::File(Vec::new()));
        Ok(())
    }

    /// Choose replica targets for a new block written from `writer`
    /// (Hadoop's default policy: first replica local, others spread).
    pub fn choose_targets(&mut self, writer: Option<NodeId>) -> Vec<NodeId> {
        let mut targets = Vec::with_capacity(self.replication);
        if let Some(w) = writer {
            targets.push(w);
        }
        while targets.len() < self.replication {
            let cand = NodeId((self.rr % self.n_nodes) as u32);
            self.rr += 1;
            if !targets.contains(&cand) {
                targets.push(cand);
            }
        }
        targets
    }

    /// Allocate and append a *real* block to a file. `crc` is the CRC-32C
    /// of the block payload as committed by the write pipeline (`0` for
    /// unchecksummed hand-built state; reads then skip verification).
    pub fn add_block(
        &mut self,
        path: &str,
        len: u64,
        locations: Vec<NodeId>,
        crc: u32,
    ) -> Result<BlockId, NsError> {
        self.ops += 1;
        self.log_edit(EditOp::AddBlock {
            path: path.to_string(),
            len,
            locations: locations.clone(),
            crc,
        });
        let id = BlockId(self.next_block);
        self.next_block += 1;
        let block = Block {
            id,
            len,
            kind: BlockKind::Real { locations },
            crc,
        };
        let r = self.file_blocks_mut(path).map(|blocks| {
            blocks.push(block);
            id
        });
        self.maybe_checkpoint();
        r
    }

    /// Append a *dummy* block mapping PFS data — the Data Mapper's write
    /// into the Virtual Mapping Table.
    pub fn add_dummy_block(
        &mut self,
        path: &str,
        len: u64,
        descriptor: VirtualBlock,
    ) -> Result<BlockId, NsError> {
        self.ops += 1;
        self.log_edit(EditOp::AddDummyBlock {
            path: path.to_string(),
            len,
            descriptor: descriptor.clone(),
        });
        let id = BlockId(self.next_block);
        self.next_block += 1;
        let block = Block {
            id,
            len,
            kind: BlockKind::Dummy(descriptor),
            crc: 0,
        };
        let r = self.file_blocks_mut(path).map(|blocks| {
            blocks.push(block);
            id
        });
        self.maybe_checkpoint();
        r
    }

    fn file_blocks_mut(&mut self, path: &str) -> Result<&mut Vec<Block>, NsError> {
        let parts = split_path(path);
        let (name, dirs) = parts
            .split_last()
            .ok_or_else(|| NsError::NotAFile(path.to_string()))?;
        let dir = self.dir_mut(dirs, false)?;
        match dir.get_mut(*name) {
            Some(INode::File(blocks)) => Ok(blocks),
            Some(INode::Dir(_)) => Err(NsError::NotAFile(path.to_string())),
            None => Err(NsError::NotFound(path.to_string())),
        }
    }

    /// Block list of a file (what `getBlockLocations` returns).
    pub fn blocks(&self, path: &str) -> Result<&[Block], NsError> {
        match self.node(path) {
            Some(INode::File(blocks)) => Ok(blocks),
            Some(INode::Dir(_)) => Err(NsError::NotAFile(path.to_string())),
            None => Err(NsError::NotFound(path.to_string())),
        }
    }

    /// File length in real bytes.
    pub fn file_len(&self, path: &str) -> Result<u64, NsError> {
        Ok(self.blocks(path)?.iter().map(|b| b.len).sum())
    }

    /// Immediate children of a directory (`listStatus`).
    pub fn list_status(&self, path: &str) -> Result<Vec<FileStatus>, NsError> {
        let parts = split_path(path);
        let mut cur = &self.root;
        for part in &parts {
            match cur.get(*part) {
                Some(INode::Dir(children)) => cur = children,
                Some(INode::File(_)) => return Err(NsError::NotADirectory(path.to_string())),
                None => return Err(NsError::NotFound(path.to_string())),
            }
        }
        let prefix = if parts.is_empty() {
            String::new()
        } else {
            format!("{}/", parts.join("/"))
        };
        Ok(cur
            .iter()
            .map(|(name, node)| match node {
                INode::Dir(_) => FileStatus {
                    path: format!("{prefix}{name}"),
                    is_dir: true,
                    len: 0,
                    n_blocks: 0,
                },
                INode::File(blocks) => FileStatus {
                    path: format!("{prefix}{name}"),
                    is_dir: false,
                    len: blocks.iter().map(|b| b.len).sum(),
                    n_blocks: blocks.len(),
                },
            })
            .collect())
    }

    /// All files under a path, recursively (used by InputFormats).
    pub fn list_files_recursive(&self, path: &str) -> Result<Vec<FileStatus>, NsError> {
        let mut out = Vec::new();
        if self.is_file(path) {
            let blocks = self.blocks(path)?;
            out.push(FileStatus {
                path: split_path(path).join("/"),
                is_dir: false,
                len: blocks.iter().map(|b| b.len).sum(),
                n_blocks: blocks.len(),
            });
            return Ok(out);
        }
        let mut stack = vec![split_path(path).join("/")];
        while let Some(dir) = stack.pop() {
            for st in self.list_status(&dir)? {
                if st.is_dir {
                    stack.push(st.path);
                } else {
                    out.push(st);
                }
            }
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// Rename a file or directory subtree (how task attempts atomically
    /// commit temp output). Destination parents are created as needed;
    /// fails if the destination already exists.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), NsError> {
        self.ops += 1;
        self.log_edit(EditOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
        let r = self.rename_inner(from, to);
        self.maybe_checkpoint();
        r
    }

    fn rename_inner(&mut self, from: &str, to: &str) -> Result<(), NsError> {
        let fparts = split_path(from);
        let (fname, fdirs) = fparts
            .split_last()
            .ok_or_else(|| NsError::NotFound(from.to_string()))?;
        let fname = fname.to_string();
        let fdirs: Vec<&str> = fdirs.to_vec();
        let tparts = split_path(to);
        let (tname, tdirs) = tparts
            .split_last()
            .ok_or_else(|| NsError::NotAFile(to.to_string()))?;
        let tname = tname.to_string();
        let tdirs: Vec<&str> = tdirs.to_vec();
        // Validate/create the destination first so a failure leaves the
        // source untouched.
        let dst = self.dir_mut(&tdirs, true)?;
        if dst.contains_key(&tname) {
            return Err(NsError::AlreadyExists(to.to_string()));
        }
        let node = self
            .dir_mut(&fdirs, false)?
            .remove(&fname)
            .ok_or_else(|| NsError::NotFound(from.to_string()))?;
        match self.dir_mut(&tdirs, false) {
            Ok(d) => {
                d.insert(tname, node);
                Ok(())
            }
            Err(e) => {
                // Destination vanished with the source removal (renaming a
                // dir into itself); undo. The source parent chain still
                // exists — we removed a single entry from it, never an
                // ancestor — so the undo lookup cannot fail.
                match self.dir_mut(&fdirs, false) {
                    Ok(d) => {
                        d.insert(fname, node);
                    }
                    Err(_) => debug_assert!(false, "rename undo: source dir vanished"),
                }
                Err(e)
            }
        }
    }

    /// Delete a file or directory subtree. Returns the ids of real blocks
    /// to reclaim on DataNodes.
    pub fn delete(&mut self, path: &str) -> Result<Vec<BlockId>, NsError> {
        self.ops += 1;
        self.log_edit(EditOp::Delete {
            path: path.to_string(),
        });
        let r = self.delete_inner(path);
        self.maybe_checkpoint();
        r
    }

    fn delete_inner(&mut self, path: &str) -> Result<Vec<BlockId>, NsError> {
        let parts = split_path(path);
        let (name, dirs) = parts
            .split_last()
            .ok_or_else(|| NsError::NotFound(path.to_string()))?;
        let dir = self.dir_mut(dirs, false)?;
        let node = dir
            .remove(*name)
            .ok_or_else(|| NsError::NotFound(path.to_string()))?;
        let mut ids = Vec::new();
        fn collect(node: &INode, ids: &mut Vec<BlockId>) {
            match node {
                INode::File(blocks) => {
                    ids.extend(blocks.iter().filter(|b| !b.is_dummy()).map(|b| b.id))
                }
                INode::Dir(children) => children.values().for_each(|n| collect(n, ids)),
            }
        }
        collect(&node, &mut ids);
        Ok(ids)
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nn() -> NameNode {
        NameNode::new(4, 128, 1)
    }

    #[test]
    fn mkdir_and_nested_files() {
        let mut n = nn();
        n.mkdirs("a/b/c").unwrap();
        assert!(n.is_dir("a/b"));
        n.create_file("a/b/c/f").unwrap();
        assert!(n.is_file("a/b/c/f"));
        assert!(!n.is_file("a/b"));
        assert!(n.exists(""));
        assert!(matches!(
            n.create_file("a/b/c/f"),
            Err(NsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn file_in_path_blocks_mkdir() {
        let mut n = nn();
        n.create_file("x").unwrap();
        assert!(matches!(n.mkdirs("x/y"), Err(NsError::NotADirectory(_))));
    }

    #[test]
    fn blocks_accumulate_and_len_sums() {
        let mut n = nn();
        n.create_file("f").unwrap();
        n.add_block("f", 100, vec![NodeId(0)], 0).unwrap();
        n.add_block("f", 28, vec![NodeId(1)], 0).unwrap();
        assert_eq!(n.file_len("f").unwrap(), 128);
        assert_eq!(n.blocks("f").unwrap().len(), 2);
        assert!(matches!(n.blocks("g"), Err(NsError::NotFound(_))));
    }

    #[test]
    fn dummy_blocks_in_mapping_table() {
        let mut n = nn();
        n.mkdirs("mirror/plot_18.nc").unwrap();
        n.create_file("mirror/plot_18.nc/QR").unwrap();
        n.add_dummy_block(
            "mirror/plot_18.nc/QR",
            1000,
            VirtualBlock::SciSlab {
                pfs_path: "out/plot_18.nc".into(),
                var_path: "QR".into(),
                start: vec![0, 0, 0],
                count: vec![10, 64, 64],
            },
        )
        .unwrap();
        let blocks = n.blocks("mirror/plot_18.nc/QR").unwrap();
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].is_dummy());
        assert_eq!(blocks[0].locations(), &[] as &[NodeId]);
    }

    #[test]
    fn placement_first_replica_local() {
        let mut n = NameNode::new(4, 128, 3);
        let t = n.choose_targets(Some(NodeId(2)));
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], NodeId(2));
        let uniq: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn placement_without_writer_spreads() {
        let mut n = NameNode::new(4, 128, 1);
        let picks: Vec<NodeId> = (0..4).map(|_| n.choose_targets(None)[0]).collect();
        let uniq: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(uniq.len(), 4, "round robin should cover all nodes");
    }

    #[test]
    fn listing_and_recursion() {
        let mut n = nn();
        n.create_file("d/x").unwrap();
        n.create_file("d/sub/y").unwrap();
        n.add_block("d/x", 10, vec![NodeId(0)], 0).unwrap();
        let ls = n.list_status("d").unwrap();
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].path, "d/sub");
        assert!(ls[0].is_dir);
        assert_eq!(ls[1].path, "d/x");
        assert_eq!(ls[1].len, 10);
        let all = n.list_files_recursive("d").unwrap();
        let paths: Vec<&str> = all.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["d/sub/y", "d/x"]);
        let single = n.list_files_recursive("d/x").unwrap();
        assert_eq!(single.len(), 1);
    }

    fn busy_namespace(n: &mut NameNode) {
        n.mkdirs("warm/depth/one").unwrap();
        n.create_file("warm/f1").unwrap();
        n.add_block("warm/f1", 100, vec![NodeId(0)], 0xAAAA_0001)
            .unwrap();
        n.add_block("warm/f1", 28, vec![NodeId(1)], 0xAAAA_0002)
            .unwrap();
        n.create_file("mirror/plot.nc/QR").unwrap();
        n.add_dummy_block(
            "mirror/plot.nc/QR",
            4096,
            VirtualBlock::SciSlab {
                pfs_path: "out/plot.nc".into(),
                var_path: "QR".into(),
                start: vec![0, 0],
                count: vec![4, 8],
            },
        )
        .unwrap();
        n.create_file("tmp/attempt_0").unwrap();
        n.rename("tmp/attempt_0", "out/part-0").unwrap();
        n.create_file("junk").unwrap();
        n.delete("junk").unwrap();
        // A failed op, to prove replay re-fails it identically.
        let _ = n.create_file("warm/f1");
    }

    #[test]
    fn journal_replay_rebuilds_identical_namespace() {
        let mut n = nn();
        busy_namespace(&mut n);
        assert!(!n.journal().has_checkpoint(), "interval not reached");
        let recovered = NameNode::recover(n.journal(), 4, 128, 1);
        assert_eq!(recovered.namespace_dump(), n.namespace_dump());
        assert_eq!(recovered.journal().edits.len(), n.journal().edits.len());
        // Block ids keep allocating from the same point after recovery.
        let mut n2 = recovered;
        let mut n1 = n;
        let a = n1.add_block("warm/f1", 1, vec![NodeId(2)], 7).unwrap();
        let b = n2.add_block("warm/f1", 1, vec![NodeId(2)], 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_truncates_edits_and_recovery_still_matches() {
        let mut n = nn();
        n.journal.checkpoint_interval = 4;
        busy_namespace(&mut n);
        assert!(n.journal().has_checkpoint());
        assert!(n.journal().checkpoints >= 1);
        assert!(n.journal().edits.len() < 4);
        let recovered = NameNode::recover(n.journal(), 4, 128, 1);
        assert_eq!(recovered.namespace_dump(), n.namespace_dump());
    }

    #[test]
    fn explicit_checkpoint_then_empty_tail() {
        let mut n = nn();
        busy_namespace(&mut n);
        n.checkpoint();
        assert!(n.journal().edits.is_empty());
        let recovered = NameNode::recover(n.journal(), 4, 128, 1);
        assert_eq!(recovered.namespace_dump(), n.namespace_dump());
    }

    #[test]
    fn delete_returns_real_block_ids_only() {
        let mut n = nn();
        n.create_file("d/a").unwrap();
        n.create_file("d/b").unwrap();
        let id = n.add_block("d/a", 5, vec![NodeId(0)], 0).unwrap();
        n.add_dummy_block(
            "d/b",
            5,
            VirtualBlock::FlatRange {
                pfs_path: "p".into(),
                offset: 0,
                len: 5,
            },
        )
        .unwrap();
        let ids = n.delete("d").unwrap();
        assert_eq!(ids, vec![id]);
        assert!(!n.exists("d"));
        assert!(matches!(n.delete("d"), Err(NsError::NotFound(_))));
    }
}

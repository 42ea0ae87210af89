//! DataNode storage: real block bytes per compute node.

use std::collections::HashMap;
use std::sync::Arc;

use simnet::NodeId;

use crate::block::BlockId;

/// Block payload stores for every DataNode in the cluster.
#[derive(Debug)]
pub struct DataNodes {
    stores: Vec<HashMap<BlockId, Arc<Vec<u8>>>>,
}

impl DataNodes {
    pub fn new(n_nodes: usize) -> DataNodes {
        DataNodes {
            stores: (0..n_nodes).map(|_| HashMap::new()).collect(),
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.stores.len()
    }

    /// Store a replica of a block on a node. Out-of-range node ids are
    /// ignored, mirroring `get` (the NameNode only hands out valid ids).
    pub fn put(&mut self, node: NodeId, id: BlockId, data: Arc<Vec<u8>>) {
        debug_assert!(
            (node.0 as usize) < self.stores.len(),
            "node id out of range"
        );
        if let Some(store) = self.stores.get_mut(node.0 as usize) {
            store.insert(id, data);
        }
    }

    /// Fetch a replica from a node (None if the node has no copy or the
    /// node id is out of range).
    pub fn get(&self, node: NodeId, id: BlockId) -> Option<Arc<Vec<u8>>> {
        self.stores
            .get(node.0 as usize)
            .and_then(|s| s.get(&id).cloned())
    }

    pub fn has(&self, node: NodeId, id: BlockId) -> bool {
        self.stores
            .get(node.0 as usize)
            .is_some_and(|s| s.contains_key(&id))
    }

    /// Reclaim deleted blocks everywhere.
    pub fn reclaim(&mut self, ids: &[BlockId]) {
        for store in &mut self.stores {
            for id in ids {
                store.remove(id);
            }
        }
    }

    /// Real bytes stored on one node (0 for out-of-range node ids).
    fn used_bytes(&self, node: NodeId) -> usize {
        self.stores
            .get(node.0 as usize)
            .map_or(0, |s| s.values().map(|d| d.len()).sum())
    }

    /// Real bytes stored across the cluster (replicas counted).
    pub fn total_bytes(&self) -> usize {
        (0..self.stores.len())
            .map(|n| self.used_bytes(NodeId(n as u32)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_reclaim() {
        let mut d = DataNodes::new(2);
        let data = Arc::new(vec![1u8, 2, 3]);
        d.put(NodeId(0), BlockId(7), data.clone());
        d.put(NodeId(1), BlockId(7), data);
        assert!(d.has(NodeId(0), BlockId(7)));
        assert_eq!(d.get(NodeId(1), BlockId(7)).unwrap().len(), 3);
        assert!(d.get(NodeId(0), BlockId(8)).is_none());
        assert_eq!(d.total_bytes(), 6);
        assert_eq!(d.used_bytes(NodeId(0)), 3);
        d.reclaim(&[BlockId(7)]);
        assert_eq!(d.total_bytes(), 0);
    }
}

//! Typed dataset/operator layer over the DAG scheduler.
//!
//! A [`Dataset`] is a lazy plan of keyed `(String, Payload)` records:
//! narrow operators (`map`, `filter`) fuse into their upstream stage, wide
//! operators (`reduce_by_key`, `join`) introduce a shuffle boundary where
//! [`crate::dag`] cuts the plan into stages. Nothing runs until the plan is
//! handed to [`crate::dag::run_dag`] — which is also where a shuffle of zero
//! partitions is refused.
//!
//! Keys shuffle with the same FNV-1a `stable_hash(key) % n` the classic
//! single-job engine uses, and grouped stages iterate keys in `BTreeMap`
//! order — so a DAG produces byte-identical output to the equivalent
//! hand-chained jobs.

use std::rc::Rc;

use crate::input::{InputSplit, TaskInput};
use crate::job::{MrError, Payload, TaskCtx};

/// Decodes one task's fetched input into keyed records (the record-reader
/// of a source stage).
pub type RecordReadFn =
    Rc<dyn Fn(TaskInput, &mut TaskCtx) -> Result<Vec<(String, Payload)>, MrError>>;

/// Narrow 1→N transform of one record.
pub type PairMapFn =
    Rc<dyn Fn(&str, Payload, &mut TaskCtx) -> Result<Vec<(String, Payload)>, MrError>>;

/// Narrow predicate over one record.
pub type PairFilterFn = Rc<dyn Fn(&str, &Payload) -> bool>;

/// Wide transform of one key group. Values arrive tagged with the index of
/// the parent dataset they came from (always 0 except for joins), in
/// deterministic (parent, map partition, emit) order.
pub(crate) type GroupFn =
    Rc<dyn Fn(&str, Vec<(u8, Payload)>, &mut TaskCtx) -> Result<Vec<(String, Payload)>, MrError>>;

/// Combines one key's values into a single value (`reduce_by_key`).
pub type AggFn = Rc<dyn Fn(&str, Vec<Payload>, &mut TaskCtx) -> Result<Payload, MrError>>;

/// One node of the lazy plan.
pub(crate) enum PlanNode {
    /// Leaf: splits plus the record reader that decodes them.
    Source {
        splits: Vec<InputSplit>,
        read: RecordReadFn,
    },
    Map {
        parent: Dataset,
        f: PairMapFn,
    },
    Filter {
        parent: Dataset,
        pred: PairFilterFn,
    },
    /// Shuffle boundary: every parent hash-partitions its records into
    /// `n_partitions` buckets; `group` runs once per key downstream.
    Shuffle {
        parents: Vec<Dataset>,
        n_partitions: usize,
        group: GroupFn,
        /// Operator name for stage labels/traces.
        op: &'static str,
    },
}

/// A lazy, immutable, shareable plan of keyed records.
#[derive(Clone)]
pub struct Dataset {
    pub(crate) node: Rc<PlanNode>,
}

impl Dataset {
    fn wrap(node: PlanNode) -> Dataset {
        Dataset {
            node: Rc::new(node),
        }
    }

    /// A source dataset: one task per split, decoded by `read`.
    pub fn from_splits(splits: Vec<InputSplit>, read: RecordReadFn) -> Dataset {
        Dataset::wrap(PlanNode::Source { splits, read })
    }

    /// Narrow 1→N transform (fused into the upstream stage).
    pub fn map(&self, f: PairMapFn) -> Dataset {
        Dataset::wrap(PlanNode::Map {
            parent: self.clone(),
            f,
        })
    }

    /// Narrow filter (fused into the upstream stage).
    pub fn filter(&self, pred: PairFilterFn) -> Dataset {
        Dataset::wrap(PlanNode::Filter {
            parent: self.clone(),
            pred,
        })
    }

    /// Shuffle + per-key aggregation: each key's values collapse to one
    /// record via `agg`.
    pub fn reduce_by_key(&self, n_partitions: usize, agg: AggFn) -> Dataset {
        let group: GroupFn = Rc::new(move |key, tagged, ctx| {
            let values = tagged.into_iter().map(|(_, v)| v).collect();
            Ok(vec![(key.to_string(), agg(key, values, ctx)?)])
        });
        Dataset::wrap(PlanNode::Shuffle {
            parents: vec![self.clone()],
            n_partitions,
            group,
            op: "reduce_by_key",
        })
    }

    /// Inner hash join on key: every (left value, right value) combination
    /// of a key becomes one record, value encoded via [`encode_join`].
    /// Left/right order follows each side's deterministic shuffle order.
    /// Byte payloads only.
    pub fn join(&self, right: &Dataset, n_partitions: usize) -> Dataset {
        let group: GroupFn = Rc::new(|key, tagged, _ctx| {
            let mut lefts: Vec<Vec<u8>> = Vec::new();
            let mut rights: Vec<Vec<u8>> = Vec::new();
            for (tag, v) in tagged {
                let Payload::Bytes(b) = v else {
                    return Err(MrError::msg(format!(
                        "join: frame payload under key {key:?} (bytes only)"
                    )));
                };
                if tag == 0 {
                    lefts.push(b);
                } else {
                    rights.push(b);
                }
            }
            let mut out = Vec::with_capacity(lefts.len() * rights.len());
            for l in &lefts {
                for r in &rights {
                    out.push((key.to_string(), Payload::Bytes(encode_join(l, r))));
                }
            }
            Ok(out)
        });
        Dataset::wrap(PlanNode::Shuffle {
            parents: vec![self.clone(), right.clone()],
            n_partitions,
            group,
            op: "join",
        })
    }
}

/// Concatenate byte values with u32-LE length prefixes (what
/// [`encode_join`] builds on).
pub fn encode_group(values: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = values.iter().map(|v| 4 + v.len()).sum();
    let mut out = Vec::with_capacity(total);
    for v in values {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

/// Inverse of [`encode_group`].
pub fn decode_group(mut bytes: &[u8]) -> Result<Vec<Vec<u8>>, MrError> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (head, rest) = bytes.split_at_checked(4).ok_or_else(|| {
            MrError::msg(format!(
                "decode_group: truncated length prefix ({} bytes left)",
                bytes.len()
            ))
        })?;
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(head);
        let len = u32::from_le_bytes(len_buf) as usize;
        let (value, rest) = rest.split_at_checked(len).ok_or_else(|| {
            MrError::msg(format!("decode_group: value truncated (want {len} bytes)"))
        })?;
        out.push(value.to_vec());
        bytes = rest;
    }
    Ok(out)
}

/// Encode one joined (left, right) byte pair.
pub fn encode_join(left: &[u8], right: &[u8]) -> Vec<u8> {
    encode_group(&[left.to_vec(), right.to_vec()])
}

/// Inverse of [`encode_join`].
pub fn decode_join(bytes: &[u8]) -> Result<(Vec<u8>, Vec<u8>), MrError> {
    let parts = decode_group(bytes)?;
    let mut it = parts.into_iter();
    match (it.next(), it.next(), it.next()) {
        (Some(l), Some(r), None) => Ok((l, r)),
        _ => Err(MrError::msg("decode_join: expected exactly two parts")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_roundtrip() {
        let vals = vec![b"a".to_vec(), Vec::new(), b"longer value".to_vec()];
        assert_eq!(decode_group(&encode_group(&vals)).unwrap(), vals);
        assert_eq!(decode_group(&[]).unwrap(), Vec::<Vec<u8>>::new());
        assert!(decode_group(&[1, 0]).is_err(), "truncated prefix");
        assert!(decode_group(&[5, 0, 0, 0, 1]).is_err(), "truncated value");
    }

    #[test]
    fn join_roundtrip() {
        let enc = encode_join(b"left", b"r");
        assert_eq!(
            decode_join(&enc).unwrap(),
            (b"left".to_vec(), b"r".to_vec())
        );
        let three = encode_group(&[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert!(decode_join(&three).is_err());
    }
}

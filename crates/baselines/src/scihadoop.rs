//! SciHadoop: scientific-format-aware processing of data staged on HDFS
//! (Buck et al., SC'11 — the paper's strongest copy-based comparator).
//!
//! SciHadoop avoids text conversion: the binary containers are `distcp`-ed
//! from the PFS to HDFS **whole** ("the netCDF file is not dividable in the
//! variable level, the whole file has to be moved, which introduces
//! redundant I/O"), then chunk-aligned splits are processed with the same R
//! program SciDP runs — only the block reads come from HDFS DataNodes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hdfs::Block;
use mapreduce::{FetchDone, FetchResult, InputSplit, MrEnv, MrError, SplitFetcher, TaskInput};
use scidp::encode_slab_tag;
use scifmt::snc::{assemble_slab, chunk_extents_of, decode_chunk};
use scifmt::{SncMeta, VarMeta};
use simnet::{countdown, NodeId, Sim};

/// Reads a variable hyperslab out of an SNC container staged on HDFS.
pub struct HdfsSciFetcher {
    pub hdfs_path: String,
    pub var: Arc<VarMeta>,
    pub data_offset: usize,
    pub start: Vec<usize>,
    pub count: Vec<usize>,
}

impl SplitFetcher for HdfsSciFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        // Resolve the chunks this slab needs and the HDFS blocks covering
        // their byte extents.
        let shape = self.var.shape();
        let ids = scifmt::hyperslab::chunks_for_slab(
            &shape,
            &self.var.chunk_shape,
            &self.start,
            &self.count,
        );
        let fail = |what: String| MrError::msg(format!("scihadoop fetch: {what}"));
        let extents = chunk_extents_of(&self.var, self.data_offset);
        let ranges = ids.iter().map(|&i| {
            let e = extents.get(i).ok_or_else(|| {
                let n = extents.len();
                fail(format!(
                    "chunk {i} of `{}` out of bounds ({n} chunks)",
                    self.var.name
                ))
            })?;
            Ok((i, e.offset, e.clen, e.rlen))
        });
        let chunk_ranges: Vec<(usize, u64, u64, u64)> = match ranges.collect() {
            Ok(ranges) => ranges,
            Err(e) => return done(sim, Err(e)),
        };
        let blocks: Vec<(u64, Block)> = {
            let h = env.hdfs.borrow();
            match h.namenode.blocks(&self.hdfs_path) {
                Ok(bs) => {
                    let mut off = 0u64;
                    bs.iter()
                        .map(|b| {
                            let entry = (off, b.clone());
                            off += b.len;
                            entry
                        })
                        .collect()
                }
                Err(e) => {
                    drop(h);
                    done(
                        sim,
                        Err(MrError::msg(format!(
                            "scihadoop fetch: staged container `{}`: {e}",
                            self.hdfs_path
                        ))),
                    );
                    return;
                }
            }
        };
        // Which blocks overlap any needed chunk range?
        let needed: Vec<&(u64, Block)> = blocks
            .iter()
            .filter(|(boff, b)| {
                let bend = boff + b.len;
                chunk_ranges
                    .iter()
                    .any(|&(_, coff, clen, _)| coff < bend && coff + clen > *boff)
            })
            .collect();
        if needed.is_empty() {
            let (start, count) = (&self.start, &self.count);
            let e = fail(format!("slab {start:?}+{count:?} maps to no HDFS blocks"));
            return done(sim, Err(e));
        }
        let total_raw: usize = chunk_ranges.iter().map(|r| r.3 as usize).sum();
        let decompress_cost = sim.cost.decompress(total_raw);
        let tag = {
            let dims: Vec<String> = self.var.dims.iter().map(|d| d.name.clone()).collect();
            encode_slab_tag(&self.hdfs_path, &self.var.name, &dims, &self.start)
        };

        // Read all needed blocks in parallel, then slice out the chunks. The
        // fetch ends once: at the first failing block read, or when the last
        // block lands.
        #[allow(clippy::type_complexity)]
        let collected: Rc<RefCell<Vec<(u64, Arc<Vec<u8>>)>>> = Rc::default();
        let done_cell = Rc::new(RefCell::new(Some(done)));
        let (var, start, count) = (self.var.clone(), self.start.clone(), self.count.clone());
        let (parts, dc) = (collected.clone(), done_cell.clone());
        let all_read = countdown(needed.len(), move |sim| {
            let Some(done) = dc.borrow_mut().take() else {
                return; // a sibling block read already failed this fetch
            };
            let mut parts = parts.take();
            parts.sort_by_key(|(o, _)| *o);
            // Slice each chunk frame from the block bytes and decode.
            let slice_range = |lo: u64, len: u64| -> Vec<u8> {
                let mut out = Vec::with_capacity(len as usize);
                for (boff, data) in &parts {
                    let bend = boff + data.len() as u64;
                    let s = lo.max(*boff);
                    let e = (lo + len).min(bend);
                    // A range outside the block's bytes adds nothing: the
                    // frame comes up short and fails the fetch typed below.
                    if let Some(bytes) = data.get((s - boff) as usize..(e - boff) as usize) {
                        out.extend_from_slice(bytes);
                    }
                }
                out
            };
            let decode = || -> Result<scifmt::Array, MrError> {
                let mut raw_chunks = std::collections::HashMap::new();
                for &(idx, coff, clen, rlen) in &chunk_ranges {
                    let frame = slice_range(coff, clen);
                    if frame.len() as u64 != clen {
                        return Err(fail(format!(
                            "chunk {idx}: blocks cover {} of its {clen} bytes",
                            frame.len()
                        )));
                    }
                    let raw = decode_chunk(&frame, rlen)
                        .map_err(|e| fail(format!("chunk {idx} decode: {e}")))?;
                    raw_chunks.insert(idx, raw);
                }
                assemble_slab(&var, &start, &count, |i| {
                    raw_chunks
                        .get(&i)
                        .ok_or_else(|| scifmt::FmtError::NotFound(format!("chunk {i}")))
                })
                .map_err(|e| fail(format!("assemble: {e}")))
            };
            let fetched = decode().map(|array| FetchResult {
                input: TaskInput::Array(array),
                charges: vec![("decompress", decompress_cost)],
                counters: Vec::new(),
                tag,
            });
            done(sim, fetched);
        });
        for (boff, block) in needed {
            let (boff, collected, all_read) = (*boff, collected.clone(), all_read.clone());
            let (done_cell, path) = (done_cell.clone(), self.hdfs_path.clone());
            let read = move |sim: &mut Sim, res: Result<_, hdfs::HdfsError>| match res {
                Ok((data, _)) => {
                    collected.borrow_mut().push((boff, data));
                    all_read(sim);
                }
                Err(e) => {
                    if let Some(done) = done_cell.borrow_mut().take() {
                        done(sim, Err(MrError::msg(format!("hdfs: {e} ({path})"))));
                    }
                }
            };
            hdfs::read_block(sim, &env.topo, &env.hdfs, node, block, read);
        }
    }

    fn describe(&self) -> String {
        format!(
            "scihadoop://{}#{}[{:?}+{:?}]",
            self.hdfs_path, self.var.name, self.start, self.count
        )
    }
}

/// Build SciHadoop splits for one staged container: chunk-aligned slabs of
/// the selected variables, located where their covering blocks live. A
/// container that is not staged has no blocks: its splits carry no
/// locations, and their fetches fail typed.
pub fn scihadoop_splits(
    env: &MrEnv,
    meta: &SncMeta,
    hdfs_path: &str,
    variables: &[String],
) -> Vec<InputSplit> {
    let blocks: Vec<(u64, Block)> = {
        let h = env.hdfs.borrow();
        let mut off = 0u64;
        let staged = h.namenode.blocks(hdfs_path).unwrap_or_default();
        staged
            .iter()
            .map(|b| {
                let e = (off, b.clone());
                off += b.len;
                e
            })
            .collect()
    };
    let mut splits = Vec::new();
    for (var_path, var) in meta.all_vars() {
        if !variables.iter().any(|v| v == &var_path) {
            continue;
        }
        let var = Arc::new(var.clone());
        for ext in chunk_extents_of(&var, meta.data_offset) {
            // Locality: nodes holding blocks that cover this chunk.
            let mut locations = Vec::new();
            for (boff, b) in &blocks {
                let bend = boff + b.len;
                if ext.offset < bend && ext.offset + ext.clen > *boff {
                    for n in b.locations() {
                        if !locations.contains(n) {
                            locations.push(*n);
                        }
                    }
                }
            }
            splits.push(InputSplit {
                length: ext.clen,
                locations,
                fetcher: Rc::new(HdfsSciFetcher {
                    hdfs_path: hdfs_path.to_string(),
                    var: var.clone(),
                    data_offset: meta.data_offset,
                    start: ext.origin.clone(),
                    count: ext.shape.clone(),
                }),
            });
        }
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distcp::distcp_blocking;
    use crate::util::{paper_cluster, stage_nuwrf};
    use wrfgen::WrfSpec;

    /// Run one split's fetch to completion on node 0.
    fn fetch(c: &mut mapreduce::Cluster, split: &InputSplit) -> Result<FetchResult, MrError> {
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        split.fetcher.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| *g.borrow_mut() = Some(fr)),
        );
        c.run();
        let fr = got.borrow_mut().take();
        fr.expect("fetch completed")
    }

    #[test]
    fn staged_slab_matches_pfs_original() {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(2, &wspec);
        let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
        let src = ds.info.files[0].clone();
        distcp_blocking(&mut c, vec![(src.clone(), "staged.snc".into())], 2);
        // Parse metadata from the original bytes (identical content).
        let bytes = c.pfs.borrow().file(&src).unwrap().data.clone();
        let f = scifmt::SncFile::open(bytes.as_ref().clone()).unwrap();
        let env = c.env();
        let splits = scihadoop_splits(&env, f.meta(), "staged.snc", &["QR".to_string()]);
        // tiny spec: 4 levels / 2-level chunks = 2 slabs.
        assert_eq!(splits.len(), 2);
        assert!(
            !splits[0].locations.is_empty(),
            "staged splits carry block locality"
        );
        // Fetch the second slab and compare against a direct read.
        let fr = fetch(&mut c, &splits[1]).unwrap();
        let TaskInput::Array(a) = fr.input else {
            panic!("expected array")
        };
        let expect = f.get_vara("QR", &[2, 0, 0], &[2, 8, 8]).unwrap();
        assert_eq!(a, expect);
        // Tag decodes to the right slab.
        let (file, var, dims, origin) = scidp::decode_tag(&fr.tag).unwrap();
        assert_eq!(file, "staged.snc");
        assert_eq!(var, "QR");
        assert_eq!(dims, vec!["lev", "lat", "lon"]);
        assert_eq!(origin, vec![2, 0, 0]);
    }

    #[test]
    fn chunk_the_staged_blocks_do_not_cover_fails_the_fetch_typed() {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(2, &wspec);
        let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
        let bytes = c.pfs.borrow().file(&ds.info.files[0]).unwrap().data.clone();
        let f = scifmt::SncFile::open(bytes.as_ref().clone()).unwrap();
        // Stage copies that end one byte short of QR's last chunk, and
        // right where it starts (no block reaches it at all), and plan
        // against the full container's metadata.
        let qr = f.meta().var("QR").unwrap();
        let last = chunk_extents_of(qr, f.meta().data_offset).pop().unwrap();
        let short = (last.offset + last.clen - 1, "short.snc", "blocks cover");
        let absent = (last.offset, "absent.snc", "maps to no HDFS blocks");
        for (cut, staged, what) in [short, absent] {
            c.pfs
                .borrow_mut()
                .create("cut.snc", bytes[..cut as usize].to_vec());
            distcp_blocking(&mut c, vec![("cut.snc".into(), staged.into())], 2);
            let env = c.env();
            let splits = scihadoop_splits(&env, f.meta(), staged, &["QR".to_string()]);
            let err = fetch(&mut c, &splits[1]).err().unwrap();
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn a_container_never_staged_or_a_slab_past_its_chunks_fails_the_fetch_typed() {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(2, &wspec);
        let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
        let bytes = c.pfs.borrow().file(&ds.info.files[0]).unwrap().data.clone();
        let f = scifmt::SncFile::open(bytes.as_ref().clone()).unwrap();
        // Not on HDFS: the splits carry no locations, and the fetch says why.
        let env = c.env();
        let splits = scihadoop_splits(&env, f.meta(), "never.snc", &["QR".to_string()]);
        assert_eq!(splits.len(), 2);
        assert!(splits.iter().all(|s| s.locations.is_empty()));
        let err = fetch(&mut c, &splits[0]).err().unwrap();
        assert!(
            err.to_string()
                .contains("scihadoop fetch: staged container"),
            "{err}"
        );
        // Metadata that lists only QR's first chunk: its second slab names a
        // chunk id past the extents.
        let mut qr = f.meta().var("QR").unwrap().clone();
        qr.chunks.truncate(1);
        let past = InputSplit {
            length: 1,
            locations: Vec::new(),
            fetcher: Rc::new(HdfsSciFetcher {
                hdfs_path: "never.snc".into(),
                var: Arc::new(qr),
                data_offset: f.meta().data_offset,
                start: vec![2, 0, 0],
                count: vec![2, 8, 8],
            }),
        };
        let err = fetch(&mut c, &past).err().unwrap();
        assert!(err.to_string().contains("scihadoop fetch: chunk"), "{err}");
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }
}

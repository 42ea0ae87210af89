//! The experiment registry and what the feature benches share: the small
//! 4-OST world, flat-file splits, the byte-count job and SNC staging.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{Cluster, FlatPfsFetcher, InputSplit, Job, MrError, Payload, TaskInput};
use pfs::PfsConfig;
use scidp_bench::{Report, Scale};
use scifmt::{Array, Codec, SncBuilder, SncFile, VarMeta};
use simnet::{ClusterSpec, CostModel};

mod ablation_blocks;
mod ablation_readsize;
mod ablation_subset;
mod cache;
mod chaos;
mod codec_scaling;
mod dag;
mod datamodel;
mod faults;
mod fig2;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod integrity;
mod overlap;
mod pushdown;
mod table1;

/// One runnable experiment. Its report is compared against, and recorded
/// in, `BENCH_<file>.json`. `chaos` and `cache` hand [`Scale::fault_seed`] to
/// their fault plans, where it reaches nothing they run: under any seed they
/// must repeat the one recorded section row for row.
pub struct Experiment {
    pub name: &'static str,
    pub group: &'static str,
    pub file: &'static str,
    pub run: fn(&Scale) -> Report,
}

pub const GROUPS: [&str; 4] = ["figures", "driver", "read-path", "kernels"];

const fn exp(
    name: &'static str,
    group: &'static str,
    file: &'static str,
    run: fn(&Scale) -> Report,
) -> Experiment {
    Experiment {
        name,
        group,
        file,
        run,
    }
}

#[rustfmt::skip] // one experiment per line reads as the table it is
pub static REGISTRY: [Experiment; 19] = [
    exp("table1", "figures", "figures", table1::run),
    exp("datamodel", "figures", "figures", datamodel::run),
    exp("fig2", "figures", "figures", fig2::run),
    exp("fig5", "figures", "figures", fig5::run),
    exp("fig6", "figures", "figures", fig6::run),
    exp("fig7", "figures", "figures", fig7::run),
    exp("fig8", "figures", "figures", fig8::run),
    exp("fig9", "figures", "figures", fig9::run),
    exp("ablation_blocks", "figures", "figures", ablation_blocks::run),
    exp("ablation_subset", "figures", "figures", ablation_subset::run),
    exp("ablation_readsize", "figures", "figures", ablation_readsize::run),
    exp("faults", "driver", "faults", faults::run),
    exp("dag", "driver", "dag", dag::run),
    exp("chaos", "driver", "chaos", chaos::run),
    exp("overlap", "read-path", "overlap", overlap::run),
    exp("pushdown", "read-path", "pushdown", pushdown::run),
    exp("cache", "read-path", "cache", cache::run),
    exp("codec_scaling", "kernels", "codec", codec_scaling::run),
    exp("integrity", "kernels", "integrity", integrity::run),
];

/// The experiments `what` names: one by name, a group, or `all`.
pub fn select(what: &str) -> Vec<&'static Experiment> {
    REGISTRY
        .iter()
        .filter(|e| what == "all" || what == e.name || what == e.group)
        .collect()
}

/// 1 storage node with 4 OSTs in front of `nodes` × 2 task slots.
pub fn small_cluster(
    nodes: usize,
    block_size: usize,
    replication: usize,
    cost: CostModel,
) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: nodes,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    Cluster::new(spec, pfs_cfg, block_size, replication, cost)
}

/// Paper-scale byte amplification + a small task startup, so a sweep
/// measures the read / decompress / compute pipeline, not fixed scheduling
/// overhead.
pub fn pipeline_cost(scale: f64) -> CostModel {
    CostModel {
        scale,
        task_startup_s: 0.1,
        ..CostModel::default()
    }
}

/// `path` (of `file_bytes`) as `n` equal flat splits, each read in
/// `pieces` sequential requests.
pub fn flat_splits(path: &str, file_bytes: u64, n: u64, pieces: usize) -> Vec<InputSplit> {
    let per = file_bytes / n;
    (0..n)
        .map(|i| InputSplit {
            length: per,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: path.to_string(),
                offset: i * per,
                len: per,
                sequential_chunks: pieces,
            }),
        })
        .collect()
}

/// Count byte values per split (charging `charge_s` of compute per map, so
/// stragglers, hangs and overlap act on real work), sum them in 2 reducers,
/// commit under `out`.
pub fn byte_count_job(name: &str, splits: Vec<InputSplit>, charge_s: f64) -> Job {
    Job::new(
        name,
        splits,
        Rc::new(move |input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
            for &x in &b {
                *counts.entry(x).or_default() += 1;
            }
            ctx.charge("compute", charge_s);
            for (k, v) in counts {
                ctx.emit(format!("b{k}"), Payload::Bytes(v.to_string().into_bytes()));
            }
            Ok(())
        }),
        Some(Rc::new(|key, values, ctx| {
            let mut total = 0usize;
            for v in &values {
                let Payload::Bytes(b) = v else { continue };
                total += String::from_utf8_lossy(b)
                    .parse::<usize>()
                    .map_err(|e| MrError::msg(format!("bad count: {e}")))?;
            }
            ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
            Ok(())
        })),
        2,
        "out",
    )
}

/// The committed files under `dir`, for byte-identity checks.
pub fn output(c: &Cluster, dir: &str) -> Vec<(String, Vec<u8>)> {
    c.read_output(dir).expect("committed output is readable")
}

/// A one-variable shuffle+LZ SNC container: `name[lev, lat, lon]` f32,
/// chunked `chunk_lev` levels at a time.
pub fn snc_container(
    name: &str,
    [lev, lat, lon]: [usize; 3],
    chunk_lev: usize,
    zone_maps: bool,
    data: Vec<f32>,
) -> Vec<u8> {
    let mut b = SncBuilder::new();
    b.zone_maps(zone_maps);
    b.add_var(
        "",
        name,
        &[("lev", lev), ("lat", lat), ("lon", lon)],
        &[chunk_lev, lat, lon],
        Codec::ShuffleLz { elem: 4 },
        Array::from_f32(vec![lev, lat, lon], data).expect("data fills the shape"),
    )
    .expect("one variable, valid chunking");
    b.finish()
}

/// Put `container` on the PFS at `path`; returns the metadata of its
/// variable `var` and the container's data offset (what a
/// `SciSlabFetcher` needs).
pub fn stage_snc(c: &Cluster, path: &str, var: &str, container: Vec<u8>) -> (Arc<VarMeta>, usize) {
    let f = SncFile::open(container.clone()).expect("container parses");
    let meta = Arc::new(f.meta().var(var).expect("variable present").clone());
    c.pfs.borrow_mut().create(path.to_string(), container);
    (meta, f.meta().data_offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_unique_names_and_no_empty_group() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(GROUPS.contains(&e.group), "{}: group {}", e.name, e.group);
            assert!(!GROUPS.contains(&e.name) && e.name != "all", "{}", e.name);
            assert!(
                REGISTRY[..i].iter().all(|o| o.name != e.name),
                "duplicate experiment {}",
                e.name
            );
            assert_eq!(select(e.name).len(), 1);
        }
        for g in GROUPS {
            assert!(!select(g).is_empty(), "group {g} is empty");
        }
        assert_eq!(select("all").len(), REGISTRY.len());
        assert_eq!(select("figures").len(), 11);
        assert!(select("nope").is_empty() && select("").is_empty());
    }
}

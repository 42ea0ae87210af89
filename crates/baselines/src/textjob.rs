//! The text-path processing shared by the conversion-based baselines
//! (naive, vanilla Hadoop, PortHadoop): `read.table` the CSV, rebuild the
//! level grids, plot each level.
//!
//! This is the Figure 7 "Convert"-dominated path: parsing the ~33x-larger
//! text through `read.table` costs far more than SciDP's binary decode.

use std::rc::Rc;

use mapreduce::{InputSplit, MapFn, MrEnv, MrError, SplitFetcher, TaskCtx, TaskInput};
use rframe::read_table;
use scidp::{RCtx, WorkflowConfig};
use scifmt::{Array, ArrayData};
use simnet::{NodeId, Sim};

/// Wrap any fetcher to attach a fixed tag (here: the input file name, used
/// to key the plotted images).
pub struct TagFetcher {
    pub inner: Rc<dyn SplitFetcher>,
    pub tag: String,
}

impl SplitFetcher for TagFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: mapreduce::FetchDone) {
        let tag = self.tag.clone();
        self.inner.fetch(
            env,
            sim,
            node,
            Box::new(move |sim, fr| {
                done(
                    sim,
                    fr.map(|mut fr| {
                        fr.tag = tag;
                        fr
                    }),
                );
            }),
        );
    }

    fn open_stream(
        &self,
        env: &MrEnv,
        sim: &mut Sim,
        node: NodeId,
    ) -> Result<Box<dyn mapreduce::PieceStream>, mapreduce::StreamFallback> {
        let inner = self.inner.open_stream(env, sim, node)?;
        Ok(mapreduce::retag_stream(inner, self.tag.clone()))
    }

    fn describe(&self) -> String {
        format!("{} [{}]", self.inner.describe(), self.tag)
    }
}

/// Tag a split with a file name.
pub fn tag_split(split: InputSplit, tag: impl Into<String>) -> InputSplit {
    InputSplit {
        length: split.length,
        locations: split.locations.clone(),
        fetcher: Rc::new(TagFetcher {
            inner: split.fetcher,
            tag: tag.into(),
        }),
    }
}

/// Run the text-path payload against an already-fetched input. Factored out
/// so the naive (non-Hadoop) solution can run the identical code.
pub fn process_text(
    text: &[u8],
    ctx: &mut TaskCtx,
    cfg: &WorkflowConfig,
    raster: (u32, u32),
    scale: f64,
) -> Result<(), MrError> {
    // read.table: the expensive text parse (real + charged).
    ctx.charge("convert", ctx.cost().text_parse(text.len()));
    let s = std::str::from_utf8(text)
        .map_err(|e| MrError::msg(format!("input is not UTF-8 text: {e}")))?;
    let df = read_table(s, true, ',').map_err(|e| MrError::msg(e.to_string()))?;
    if df.n_rows() == 0 {
        return Ok(());
    }
    let lat_max = df.column("lat").map_err(|e| MrError::msg(e.to_string()))?;
    let lon_max = df.column("lon").map_err(|e| MrError::msg(e.to_string()))?;
    let lat_n = (0..df.n_rows())
        .map(|r| lat_max.f64_at(r) as usize)
        .max()
        .unwrap_or(0)
        + 1;
    let lon_n = (0..df.n_rows())
        .map(|r| lon_max.f64_at(r) as usize)
        .max()
        .unwrap_or(0)
        + 1;
    let per_level = lat_n * lon_n;
    let vcol = df
        .column("value")
        .map_err(|e| MrError::msg(e.to_string()))?;
    let values: Vec<f64> = (0..df.n_rows()).map(|r| vcol.f64_at(r)).collect();
    let levs = df.column("lev").map_err(|e| MrError::msg(e.to_string()))?;
    if df.n_rows() % per_level != 0 {
        return Err(MrError::msg(format!(
            "ragged text input: {} rows, {per_level} per level",
            df.n_rows()
        )));
    }
    let levels = df.n_rows() / per_level;
    let grids = Array::new(vec![levels, lat_n, lon_n], ArrayData::F64(values))
        .map_err(|e| MrError::msg(e.to_string()))?;
    let tag = ctx.input_tag().to_string();
    let file = if tag.is_empty() { "input" } else { &tag };
    let file = file.to_string();
    let mut rctx = RCtx::new(ctx, cfg.logical_image, raster, scale);
    rctx.plot_levels(&grids, lat_n, lon_n, cfg.colormap, |l| {
        let lev = levs.f64_at(l * per_level) as usize;
        format!("img/{file}/QR/{lev:04}")
    })
}

/// Engine map function running [`process_text`].
pub fn text_map_fn(cfg: &WorkflowConfig, raster: (u32, u32), scale: f64) -> MapFn {
    let cfg = cfg.clone();
    Rc::new(move |input, ctx| {
        let TaskInput::Bytes(text) = input else {
            return Err(MrError::msg("text job expects byte input"));
        };
        process_text(&text, ctx, &cfg, raster, scale)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::CostModel;

    fn sample_text() -> Vec<u8> {
        // 2 levels of a 2x3 grid.
        let mut t = String::from("lev,lat,lon,value\n");
        for lev in 0..2 {
            for lat in 0..2 {
                for lon in 0..3 {
                    t.push_str(&format!("{lev},{lat},{lon},{}\n", lev * 10 + lat * 3 + lon));
                }
            }
        }
        t.into_bytes()
    }

    #[test]
    fn plots_one_image_per_level() {
        let mut ctx = TaskCtx::standalone(CostModel::default());
        ctx.set_tag("plot_0001.csv");
        let cfg = WorkflowConfig::img_only(["QR"]);
        process_text(&sample_text(), &mut ctx, &cfg, (8, 8), 1.0).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].0, "img/plot_0001.csv/QR/0000");
        assert_eq!(emitted[1].0, "img/plot_0001.csv/QR/0001");
        // Text parse + plot charges present.
        assert!(ctx.total_charge_s() > 0.0);
    }

    #[test]
    fn text_parse_charge_dominates_small_plots() {
        // With paper-scale text and tiny plots the Convert phase dominates —
        // the Fig. 7 mechanism.
        let mut ctx = TaskCtx::standalone(CostModel {
            scale: 1e4,
            ..CostModel::default()
        });
        let cfg = WorkflowConfig {
            logical_image: (10, 10),
            ..WorkflowConfig::img_only(["QR"])
        };
        let text = sample_text();
        process_text(&text, &mut ctx, &cfg, (8, 8), 1e4).unwrap();
        let expected_parse = 1e4 * text.len() as f64 * ctx.cost().text_parse_per_byte;
        assert!(ctx.total_charge_s() >= expected_parse);
    }

    #[test]
    fn garbage_input_is_an_error() {
        let mut ctx = TaskCtx::standalone(CostModel::default());
        let cfg = WorkflowConfig::img_only(["QR"]);
        assert!(process_text(&[0xff, 0xfe], &mut ctx, &cfg, (8, 8), 1.0).is_err());
        assert!(
            process_text(b"a,b\n1,2\n", &mut ctx, &cfg, (8, 8), 1.0).is_err(),
            "missing lev/lat/lon columns"
        );
    }
}

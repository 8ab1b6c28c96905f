//! Reading the figure CSVs that `experiments <ids> --obs --out DIR`
//! writes: one row per cell in `<id>.csv`, and the cell's whole metrics
//! registry in `<id>.metrics.csv`.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use crate::checks::{parse_metrics, Metrics};

/// One cell of a figure: its CSV row and its metrics registry.
#[derive(Clone, Debug)]
pub struct FigCell {
    pub row: HashMap<String, String>,
    pub metrics: Metrics,
}

/// The cells of one figure, keyed by `(algorithm, cache_mb)`, in file
/// order.
pub type Figure = Vec<((String, u64), FigCell)>;

/// The rows of a figure CSV, as `column → value`.
pub fn rows(table: &str) -> Vec<HashMap<String, String>> {
    let mut lines = table.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    lines
        .map(|line| {
            header
                .iter()
                .zip(line.split(','))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .collect()
}

/// Read figure `id` from `dir`.
pub fn read(dir: &Path, id: &str) -> Result<Figure, String> {
    let load = |name: String| {
        let path = dir.join(name);
        fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut fig: Figure = rows(&load(format!("{id}.csv"))?)
        .into_iter()
        .map(|row| {
            let key = (
                row.get("algorithm").cloned().unwrap_or_default(),
                row.get("cache_mb")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
            );
            let metrics = Metrics::new();
            (key, FigCell { row, metrics })
        })
        .collect();
    let metrics = load(format!("{id}.metrics.csv"))?;
    let mut per_cell: HashMap<(String, u64), Vec<String>> = HashMap::new();
    for line in metrics.lines().skip(1) {
        let mut parts = line.splitn(3, ',');
        let (Some(algo), Some(mb), Some(rest)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("{id}.metrics.csv: malformed line {line:?}"));
        };
        let mb = mb
            .parse()
            .map_err(|_| format!("{id}.metrics.csv: bad cache size {mb:?}"))?;
        per_cell
            .entry((algo.to_string(), mb))
            .or_default()
            .push(rest.to_string());
    }
    for (key, cell) in &mut fig {
        if let Some(lines) = per_cell.get(key) {
            cell.metrics = parse_metrics(lines.iter().map(String::as_str));
        }
    }
    Ok(fig)
}

/// The cell of `fig` for `algorithm` at `cache_mb`.
pub fn find<'a>(fig: &'a Figure, algorithm: &str, cache_mb: u64) -> Option<&'a FigCell> {
    fig.iter()
        .find(|((a, mb), _)| a == algorithm && *mb == cache_mb)
        .map(|(_, c)| c)
}

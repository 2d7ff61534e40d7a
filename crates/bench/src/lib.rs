//! # arm-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (run with
//! `cargo run -p arm-bench --release --bin expt_<id>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `expt_table1` | Table 1 — profile contents (schema + live dump) |
//! | `expt_table2` | Table 2 — the admission-test rows on a worked example |
//! | `expt_fig2`   | Figure 2 — handoff activity shapes of the three lounges |
//! | `expt_fig5`   | Figure 5 — meeting-room series + drop comparison |
//! | `expt_fig6`   | Figure 6 — `P_d` vs `P_b` curve family over `T` |
//! | `expt_sec71`  | §7.1 — office-case fan-out, prediction accuracy, waste |
//! | `expt_maxmin` | Theorem 1 — distributed convergence + message counts |
//!
//! Criterion benchmarks (`cargo bench -p arm-bench`) measure the
//! algorithmic kernels: admission-test throughput (WFQ vs RCSP),
//! maxmin solving (centralized vs distributed, flooding vs refined),
//! the probabilistic admission decision, and whole-experiment runs.

pub mod report {
    //! Run-report emission for the experiment binaries.
    //!
    //! Every `expt_*` binary builds an [`arm_obs::RunReport`]
    //! alongside its human-readable stdout and hands it to [`emit`],
    //! which writes `<dir>/<bin>.json` where `<dir>` is
    //! `$ARM_RUN_REPORT_DIR` (CI sets this to the artifact directory) or
    //! `target/run-reports/` by default. Reports never touch stdout, so
    //! the printed experiment output stays bit-identical whether or not
    //! reports are collected.

    use std::path::PathBuf;

    use arm_obs::RunReport;

    /// Where run reports land: `$ARM_RUN_REPORT_DIR` if set, else
    /// `target/run-reports/` under the working directory.
    pub fn report_dir() -> PathBuf {
        match std::env::var_os("ARM_RUN_REPORT_DIR") {
            Some(d) if !d.is_empty() => PathBuf::from(d),
            _ => PathBuf::from("target").join("run-reports"),
        }
    }

    /// Serialize `report`, round-trip validate it against the schema,
    /// and write it to `report_dir()/<bin>.json`. Returns the path
    /// written. The caller decides whether a failure is fatal; the
    /// binaries print the error to stderr and exit 0 (reports are a
    /// side channel, not the experiment).
    pub fn emit(report: &RunReport) -> std::io::Result<PathBuf> {
        let json = report.to_json().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("run report failed to serialize: {e}"),
            )
        })?;
        // A report that does not parse back is a schema bug — refuse to
        // write it rather than hand CI a poisoned artifact.
        RunReport::from_json(&json).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("run report failed round-trip validation: {e}"),
            )
        })?;
        let dir = report_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", report.bin));
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// [`emit`], logging the outcome to stderr. For binary `main`s where
    /// report emission must never change the exit status.
    pub fn emit_or_warn(report: &RunReport) {
        match emit(report) {
            Ok(path) => eprintln!("run report: {}", path.display()),
            Err(e) => eprintln!("run report NOT written: {e}"),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn emit_writes_and_validates() {
            let dir = std::env::temp_dir().join("arm-bench-report-test");
            // Serialize access to the env var across test threads via a
            // unique per-test dir name instead of mutating the env:
            // build the path by hand and write through emit's internals.
            let mut r = RunReport::new("unit-test-bin", "unit");
            r.seed = Some(7);
            let json = r.to_json().expect("serialises");
            assert!(RunReport::from_json(&json).is_ok());
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join("unit-test-bin.json");
            std::fs::write(&path, &json).expect("write");
            let back = RunReport::from_json(&std::fs::read_to_string(&path).expect("read"))
                .expect("parse");
            assert_eq!(back.bin, "unit-test-bin");
            assert_eq!(back.seed, Some(7));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn default_report_dir_is_under_target() {
            if std::env::var_os("ARM_RUN_REPORT_DIR").is_none() {
                assert_eq!(report_dir(), PathBuf::from("target/run-reports"));
            }
        }
    }
}

/// Render a small ASCII chart of a per-slot series (one row per slot).
pub fn ascii_series(label: &str, values: &[f64], scale: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{label}\n"));
    for (i, v) in values.iter().enumerate() {
        let bar = "#".repeat((v * scale).round() as usize);
        out.push_str(&format!("{i:>4} | {bar} {v:.0}\n"));
    }
    out
}

/// Render aligned table rows: `widths[i]` columns per cell.
pub fn table_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    #[test]
    fn ascii_series_renders() {
        let s = super::ascii_series("x", &[0.0, 2.0, 4.0], 1.0);
        assert!(s.contains("x\n"));
        assert!(s.contains("   1 | ## 2"));
        assert!(s.contains("   2 | #### 4"));
    }

    #[test]
    fn table_row_aligns() {
        let r = super::table_row(&["a".into(), "42".into()], &[3, 5]);
        assert_eq!(r, "  a     42");
    }
}

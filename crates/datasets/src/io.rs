//! CSV import/export for point datasets.
//!
//! The real SW- datasets are distributed as text files (see the paper's
//! reference [28]); this module lets users cluster their own data by
//! loading `x,y` CSV files, and lets the synthetic datasets be exported
//! for inspection or plotting.

use spatial::Point2;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Save points as `x,y` lines (with a header).
pub fn save_csv(path: &Path, points: &[Point2]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "x,y")?;
    for p in points {
        writeln!(w, "{},{}", p.x(), p.y())?;
    }
    w.flush()
}

/// Load points from an `x,y` CSV file. A header line (anything whose first
/// field does not parse as a number) is skipped; blank lines are ignored.
/// Malformed data lines produce an error naming the line number.
pub fn load_csv(path: &Path) -> io::Result<Vec<Point2>> {
    let r = BufReader::new(File::open(path)?);
    let mut points = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(p) => points.push(p),
            None if lineno == 0 => continue, // header
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: cannot parse '{}' as x,y", lineno + 1, line),
                ))
            }
        }
    }
    Ok(points)
}

fn parse_line(line: &str) -> Option<Point2> {
    let mut it = line.split(',');
    let x: f64 = it.next()?.trim().parse().ok()?;
    let y: f64 = it.next()?.trim().parse().ok()?;
    Some(Point2::new(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hybrid_dbscan_io_test_{name}_{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let pts = vec![Point2::new(1.5, -2.25), Point2::new(0.0, 1e-9)];
        save_csv(&path, &pts).unwrap();
        let back = load_csv(&path).unwrap();
        assert_eq!(back, pts);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_is_skipped_and_blank_lines_ignored() {
        let path = tmp("header");
        std::fs::write(&path, "x,y\n\n1,2\n\n3,4\n").unwrap();
        let pts = load_csv(&path).unwrap();
        assert_eq!(pts, vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn headerless_file_loads() {
        let path = tmp("headerless");
        std::fs::write(&path, "1,2\n3,4\n").unwrap();
        assert_eq!(load_csv(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_line_errors_with_line_number() {
        let path = tmp("malformed");
        std::fs::write(&path, "x,y\n1,2\noops\n").unwrap();
        let err = load_csv(&path).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        assert!(load_csv(Path::new("/definitely/not/here.csv")).is_err());
    }
}

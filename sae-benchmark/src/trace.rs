//! Client-side spans of a traced run: kept in memory while the run
//! measures, written out once it has ended.

use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One span. Spans of one job share `job`; `parent` indexes the span
/// that caused this one within the same worker's list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`job`, `submit`, `follow.open`, ...).
    pub name: &'static str,
    /// Server-assigned job id.
    pub job: u64,
    /// Start, seconds since the generator epoch.
    pub start_s: f64,
    /// End, seconds since the generator epoch.
    pub end_s: f64,
    /// Index of the causing span in the same worker's list.
    pub parent: Option<usize>,
}

/// Writes every worker's spans as one JSON document:
/// `{"fingerprint":{...},"workers":[[{"name":..,"job":..,"start_s":..,"end_s":..,"parent":..},..],..]}`.
pub fn write_spans(path: &Path, fingerprint: &str, workers: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"fingerprint\":{fingerprint},\"workers\":[")?;
    for (w, spans) in workers.iter().enumerate() {
        write!(out, "{}[", if w > 0 { "," } else { "" })?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"job\":{},\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.job,
                s.start_s,
                s.end_s
            )?;
        }
        write!(out, "]")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            job: 1,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn span_file_is_written_whole() {
        let dir = crate::sysinfo::scratch_root().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.json");
        let spans = vec![vec![
            span("job", 0.0, 1.0, None),
            span("submit", 0.0, 0.5, Some(0)),
        ]];
        write_spans(&path, "{\"seed\":1}", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"fingerprint\":{\"seed\":1},\"workers\":[["));
        assert!(text.contains("\"name\":\"submit\",\"job\":1"));
        assert!(text.trim_end().ends_with("]]}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

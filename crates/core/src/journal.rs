//! The MAPE-K decision journal: one structured record per monitoring
//! interval `I_j`, explaining *why* the Analyzer doubled, rolled back, or
//! held.
//!
//! The paper argues for self-adaptive executors by correlating epoll wait
//! `ε_j`, throughput `µ_j`, and congestion `ζ_j` with pool-size decisions
//! (Figures 1, 5, 9). The journal is that correlation as a first-class
//! artifact: the controller emits a [`DecisionRecord`] whenever it closes
//! an interval or abandons a stage, with the same schema in the simulator
//! (virtual time) and the live TCP runtime (wall clock). Records serialize
//! to JSONL with a hand-rolled writer and parser ([`DecisionRecord::to_json`],
//! [`parse_jsonl`]) — the serialization is deterministic, so a same-seed
//! sim rerun produces a bit-identical journal.
//!
//! [`zeta_explain`] renders a journal as a human-readable hill-climb table.

use std::fmt;
use std::sync::{Arc, Mutex};

use sae_metrics::escape_json;

/// The controller's decision for one interval: the plan its effector
/// (the simulated engine or the live executor) carries out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionAction {
    /// Keep climbing: the pool doubles (or jumps to `c_max` on low-I/O
    /// evidence) for the next interval.
    Ascend,
    /// The climb regressed: the pool returns to the previous size and the
    /// controller stops adjusting for the stage. Terminal.
    RollBack,
    /// No further change this stage — the climb settled at a boundary, the
    /// stage was too short to adapt, or it ended mid-climb. Terminal.
    Hold,
    /// The interval overlapped a detected fault (a task failed, an
    /// executor was lost, work is being redistributed): its measurements
    /// were discarded and the interval restarted at the same thread count,
    /// so ζ comparisons only ever see clean intervals. Not terminal — the
    /// climb continues from the restarted interval.
    Poisoned,
}

impl DecisionAction {
    /// Whether this action ends adaptation for the stage.
    pub fn is_terminal(self) -> bool {
        !matches!(self, DecisionAction::Ascend | DecisionAction::Poisoned)
    }

    /// Stable lower-case name used in the JSONL encoding.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DecisionAction::Ascend => "ascend",
            DecisionAction::RollBack => "rollback",
            DecisionAction::Hold => "hold",
            DecisionAction::Poisoned => "poisoned",
        }
    }

    /// Parses the name produced by [`DecisionAction::as_str`].
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "ascend" => Some(DecisionAction::Ascend),
            "rollback" => Some(DecisionAction::RollBack),
            "hold" => Some(DecisionAction::Hold),
            "poisoned" => Some(DecisionAction::Poisoned),
            _ => None,
        }
    }
}

impl fmt::Display for DecisionAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal entry: what the controller measured over interval `I_j` and
/// what it decided.
///
/// Time (`at`) is seconds since the job epoch — virtual seconds in the
/// simulator, wall seconds in the live runtime; both clocks start at 0 when
/// the job starts, which is what lets `live_vs_sim` overlay the two.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Adaptation episode: increments every time the controller sees a
    /// stage start. Matches the engine's stage index on an executor that
    /// was present for every stage; a mid-job re-registration starts a
    /// fresh episode.
    pub stage: usize,
    /// Executor the controller belongs to.
    pub executor: usize,
    /// Zero-based interval index `j` within the episode.
    pub interval: usize,
    /// Seconds since the job epoch when the decision was made.
    pub at: f64,
    /// Thread count the interval ran with.
    pub threads: usize,
    /// Accumulated epoll-wait seconds `ε_j` over the interval.
    pub epoll_wait_s: f64,
    /// I/O throughput `µ_j` over the interval, in bytes per second.
    pub throughput_bps: f64,
    /// Congestion index `ζ_j = ε_j / µ_j` (µ in MB/s, as in the paper).
    pub zeta: f64,
    /// Pool size in effect while the interval ran.
    pub pool_before: usize,
    /// Pool size after the decision took effect.
    pub pool_after: usize,
    /// The controller's verdict.
    pub action: DecisionAction,
    /// Human-readable explanation of the verdict.
    pub rationale: String,
}

/// Formats an `f64` for the JSONL encoding: shortest round-trip form.
///
/// Non-finite values cannot appear in JSON; the controller never produces
/// them (`congestion_index` guards the µ→0 division), so they are mapped
/// to `0` defensively.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

impl DecisionRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"stage\":{},\"executor\":{},\"interval\":{},\"at\":{},",
                "\"threads\":{},\"epoll_wait_s\":{},\"throughput_bps\":{},",
                "\"zeta\":{},\"pool_before\":{},\"pool_after\":{},",
                "\"action\":\"{}\",\"rationale\":\"{}\"}}"
            ),
            self.stage,
            self.executor,
            self.interval,
            fmt_f64(self.at),
            self.threads,
            fmt_f64(self.epoll_wait_s),
            fmt_f64(self.throughput_bps),
            fmt_f64(self.zeta),
            self.pool_before,
            self.pool_after,
            self.action.as_str(),
            escape_json(&self.rationale),
        )
    }

    /// Parses a record from the JSON produced by
    /// [`DecisionRecord::to_json`] (a single flat object; key order does
    /// not matter).
    pub(crate) fn from_json(line: &str) -> Result<Self, String> {
        let mut p = JsonParser::new(line);
        p.expect('{')?;
        let mut stage = None;
        let mut executor = None;
        let mut interval = None;
        let mut at = None;
        let mut threads = None;
        let mut epoll_wait_s = None;
        let mut throughput_bps = None;
        let mut zeta = None;
        let mut pool_before = None;
        let mut pool_after = None;
        let mut action = None;
        let mut rationale = None;
        loop {
            p.skip_ws();
            if p.try_consume('}') {
                break;
            }
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "stage" => stage = Some(p.usize()?),
                "executor" => executor = Some(p.usize()?),
                "interval" => interval = Some(p.usize()?),
                "at" => at = Some(p.number()?),
                "threads" => threads = Some(p.usize()?),
                "epoll_wait_s" => epoll_wait_s = Some(p.number()?),
                "throughput_bps" => throughput_bps = Some(p.number()?),
                "zeta" => zeta = Some(p.number()?),
                "pool_before" => pool_before = Some(p.usize()?),
                "pool_after" => pool_after = Some(p.usize()?),
                "action" => {
                    let s = p.string()?;
                    action =
                        Some(DecisionAction::parse(&s).ok_or(format!("unknown action {s:?}"))?);
                }
                "rationale" => rationale = Some(p.string()?),
                other => return Err(format!("unknown key {other:?}")),
            }
            p.skip_ws();
            if !p.try_consume(',') {
                p.expect('}')?;
                break;
            }
        }
        p.skip_ws();
        if !p.at_end() {
            return Err("trailing content after record".to_string());
        }
        let missing = |k: &str| format!("missing key {k:?}");
        Ok(Self {
            stage: stage.ok_or_else(|| missing("stage"))?,
            executor: executor.ok_or_else(|| missing("executor"))?,
            interval: interval.ok_or_else(|| missing("interval"))?,
            at: at.ok_or_else(|| missing("at"))?,
            threads: threads.ok_or_else(|| missing("threads"))?,
            epoll_wait_s: epoll_wait_s.ok_or_else(|| missing("epoll_wait_s"))?,
            throughput_bps: throughput_bps.ok_or_else(|| missing("throughput_bps"))?,
            zeta: zeta.ok_or_else(|| missing("zeta"))?,
            pool_before: pool_before.ok_or_else(|| missing("pool_before"))?,
            pool_after: pool_after.ok_or_else(|| missing("pool_after"))?,
            action: action.ok_or_else(|| missing("action"))?,
            rationale: rationale.ok_or_else(|| missing("rationale"))?,
        })
    }
}

/// Serializes records as JSONL: one `DecisionRecord::to_json` object per
/// line, each newline-terminated.
pub fn to_jsonl(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSONL journal produced by [`to_jsonl`]; blank lines are
/// skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<DecisionRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, l)| DecisionRecord::from_json(l).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

/// A minimal recursive-descent parser for the flat JSON objects the
/// journal emits. Deliberately not a general JSON parser: no nesting, no
/// arrays, no booleans — the schema does not need them and the workspace
/// has no JSON dependency.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn at_end(&mut self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn try_consume(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c as u8) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.try_consume(c) {
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unescaped).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let v = self.number()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= usize::MAX as f64 {
            Ok(v as usize)
        } else {
            Err(format!("expected unsigned integer, got {v}"))
        }
    }
}

/// A shared, appendable journal handle.
///
/// Clones share the same underlying record list (like
/// `sae_metrics::MetricRegistry`), so a controller buried inside a pool or
/// an engine can hand the journal out to whoever wants to drain or render
/// it.
#[derive(Clone, Default)]
pub struct DecisionJournal {
    records: Arc<Mutex<Vec<DecisionRecord>>>,
}

impl DecisionJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&self, record: DecisionRecord) {
        self.records.lock().expect("journal poisoned").push(record);
    }

    /// A copy of every record, in emission order.
    pub fn records(&self) -> Vec<DecisionRecord> {
        self.records.lock().expect("journal poisoned").clone()
    }

    /// Drains the journal, returning every record emitted so far.
    pub fn take(&self) -> Vec<DecisionRecord> {
        std::mem::take(&mut *self.records.lock().expect("journal poisoned"))
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.lock().expect("journal poisoned").len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the current records as JSONL (see [`to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.records())
    }
}

impl fmt::Debug for DecisionJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionJournal")
            .field("records", &self.len())
            .finish()
    }
}

/// Renders a journal as a hill-climb explanation table — the textual
/// equivalent of the paper's Figure 5 (`ζ_j` against pool size per
/// interval).
///
/// Columns: stage, executor, interval, threads, `ε_j` (s), `µ_j` (MB/s),
/// `ζ_j`, pool transition, action, rationale.
pub fn zeta_explain(records: &[DecisionRecord]) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    let mut rows: Vec<[String; 10]> = vec![[
        "stage".into(),
        "exec".into(),
        "I_j".into(),
        "thr".into(),
        "eps_j(s)".into(),
        "mu_j(MB/s)".into(),
        "zeta_j".into(),
        "pool".into(),
        "action".into(),
        "rationale".into(),
    ]];
    for r in records {
        rows.push([
            r.stage.to_string(),
            r.executor.to_string(),
            r.interval.to_string(),
            r.threads.to_string(),
            format!("{:.3}", r.epoll_wait_s),
            format!("{:.2}", r.throughput_bps / MB),
            format!("{:.4}", r.zeta),
            format!("{}->{}", r.pool_before, r.pool_after),
            r.action.as_str().to_string(),
            r.rationale.clone(),
        ]);
    }
    let mut widths = [0usize; 10];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        for (i, (cell, w)) in row.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 9 {
                // Last column: no padding, rationales vary wildly in length.
                out.push_str(cell);
            } else {
                out.push_str(&format!("{cell:<w$}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(interval: usize, action: DecisionAction) -> DecisionRecord {
        DecisionRecord {
            stage: 1,
            executor: 2,
            interval,
            at: 3.25,
            threads: 2 << interval,
            epoll_wait_s: 0.5,
            throughput_bps: 104_857_600.0,
            zeta: 0.005,
            pool_before: 2 << interval,
            pool_after: 4 << interval,
            action,
            rationale: "test \"quoted\"\nnewline\tand \\backslash".to_string(),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for action in [
            DecisionAction::Ascend,
            DecisionAction::RollBack,
            DecisionAction::Hold,
        ] {
            let r = record(3, action);
            let parsed = DecisionRecord::from_json(&r.to_json()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn jsonl_round_trip_many_records() {
        let records = vec![
            record(0, DecisionAction::Ascend),
            record(1, DecisionAction::Ascend),
            record(2, DecisionAction::RollBack),
        ];
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn parser_skips_blank_lines_and_reports_bad_ones() {
        let r = record(0, DecisionAction::Hold);
        let text = format!("\n{}\n\n", r.to_json());
        assert_eq!(parse_jsonl(&text).unwrap(), vec![r]);
        let err = parse_jsonl("{\"stage\":}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn missing_key_is_an_error() {
        let mut json = record(0, DecisionAction::Hold).to_json();
        json = json.replace("\"zeta\":0.005,", "");
        let err = DecisionRecord::from_json(&json).unwrap_err();
        assert!(err.contains("zeta"), "{err}");
    }

    #[test]
    fn shortest_float_form_survives_round_trip() {
        let mut r = record(0, DecisionAction::Ascend);
        r.at = 0.1 + 0.2; // classic non-representable sum
        r.zeta = 1e-12;
        r.throughput_bps = 1.5e9;
        let parsed = DecisionRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn terminality_matches_action() {
        assert!(!DecisionAction::Ascend.is_terminal());
        assert!(DecisionAction::RollBack.is_terminal());
        assert!(DecisionAction::Hold.is_terminal());
        assert!(!DecisionAction::Poisoned.is_terminal());
    }

    #[test]
    fn poisoned_round_trips_through_json() {
        let r = record(2, DecisionAction::Poisoned);
        assert_eq!(DecisionRecord::from_json(&r.to_json()).unwrap(), r);
        assert_eq!(
            DecisionAction::parse("poisoned"),
            Some(DecisionAction::Poisoned)
        );
    }

    #[test]
    fn journal_handle_is_shared_between_clones() {
        let journal = DecisionJournal::new();
        let clone = journal.clone();
        clone.push(record(0, DecisionAction::Ascend));
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.take().len(), 1);
        assert!(clone.is_empty());
    }

    #[test]
    fn zeta_explain_renders_aligned_table() {
        // Controller rationales are single-line; the multi-line fixture
        // rationale only exercises the JSON escapes.
        let mut a = record(0, DecisionAction::Ascend);
        let mut b = record(1, DecisionAction::RollBack);
        a.rationale = "climb".to_string();
        b.rationale = "regressed".to_string();
        let table = zeta_explain(&[a, b]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("zeta_j"));
        assert!(lines[1].contains("ascend"));
        assert!(lines[2].contains("rollback"));
        // Columns align: "ascend" and "rollback" start at the same offset.
        let col = lines[1].find("ascend").unwrap();
        assert_eq!(lines[2].find("rollback").unwrap(), col);
    }

    #[test]
    fn action_parse_inverts_as_str() {
        for a in [
            DecisionAction::Ascend,
            DecisionAction::RollBack,
            DecisionAction::Hold,
        ] {
            assert_eq!(DecisionAction::parse(a.as_str()), Some(a));
        }
        assert_eq!(DecisionAction::parse("explode"), None);
    }
}

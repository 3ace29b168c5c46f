//! `nvm-llc --trace-out PATH` end to end: the flag must not change a
//! byte of the artifact on stdout, and the file it writes must be a
//! chrome://tracing object whose complete events cover every layer of
//! a matrix run, spread over at least two worker lanes, and nest
//! properly inside each lane.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// A minimal JSON value: enough to walk a Trace Event Format file.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            other => panic!("field {key:?} is not a number: {other:?}"),
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "expected {:?} at byte {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.bytes[self.at];
            self.at += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.bytes[self.at];
                    self.at += 1;
                    match e {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.at..self.at + 4])
                                .expect("utf-8 escape");
                            self.at += 4;
                            let code = u32::from_str_radix(hex, 16).expect("hex escape");
                            out.push(char::from_u32(code).unwrap_or('?'));
                        }
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => out.push(other as char),
                    }
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(fields);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return value;
                    }
                }
                panic!("bad literal at byte {}", self.at);
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_ws();
    assert_eq!(parser.at, text.len(), "trailing bytes after the JSON value");
    value
}

fn run_fig1(extra: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_nvm-llc"))
        .args(["fig1", "--scale", "smoke", "--threads", "2"])
        .args(extra)
        .env_remove("NVM_LLC_LOG")
        .output()
        .expect("run nvm-llc");
    assert!(
        output.status.success(),
        "nvm-llc {extra:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// One complete event on a lane: start and end (µs), and its name.
type Span<'a> = (f64, f64, &'a str);

/// Timestamps are rendered with a fixed number of decimals, so a child
/// may appear to end a rounding step after its parent.
const ROUNDING_SLACK_US: f64 = 1.0;

#[test]
fn trace_out_keeps_stdout_and_writes_nested_chrome_lanes() {
    let path = std::env::temp_dir().join(format!("nvm-llc-trace-out-{}.json", std::process::id()));
    let plain = run_fig1(&[]);
    let traced = run_fig1(&["--trace-out", path.to_str().expect("utf-8 temp path")]);
    assert!(
        plain == traced,
        "--trace-out must not change a byte of stdout"
    );

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let root = parse_json(&text);
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        panic!(
            "not a {{\"traceEvents\":[…]}} object: {}",
            &text[..text.len().min(200)]
        );
    };

    let complete: Vec<&Json> = events.iter().filter(|e| e.str("ph") == Some("X")).collect();
    for name in [
        "eval_run_all",
        "trace_generate",
        "tape_record",
        "tape_replay_batch",
    ] {
        assert!(
            complete.iter().any(|e| e.str("name") == Some(name)),
            "no complete event named {name:?}"
        );
    }

    // fig1 at smoke scale evaluates 20 workloads on one LLC geometry:
    // one functional pass per workload, and one group per pass whose
    // streamed replay a `tape_replay_batch` finishes inside the pass.
    let count = |name: &str| {
        complete
            .iter()
            .filter(|e| e.str("name") == Some(name))
            .count()
    };
    assert_eq!(count("tape_record"), 20, "one pass span per work item");
    assert_eq!(count("tape_replay_batch"), 20, "one replay span per group");

    // Lanes are (pid, tid) pairs; the matrix layers run on the workers.
    let mut lanes: BTreeMap<(u64, u64), Vec<Span<'_>>> = BTreeMap::new();
    for event in &complete {
        let lane = (event.num("pid") as u64, event.num("tid") as u64);
        let ts = event.num("ts");
        let end = ts + event.num("dur");
        lanes
            .entry(lane)
            .or_default()
            .push((ts, end, event.str("name").unwrap_or("")));
    }
    let worker_lanes: BTreeSet<_> = lanes
        .iter()
        .filter(|(_, spans)| {
            spans
                .iter()
                .any(|(_, _, name)| matches!(*name, "tape_record" | "tape_replay_batch"))
        })
        .map(|(lane, _)| *lane)
        .collect();
    assert!(
        worker_lanes.len() >= 2,
        "--threads 2 must show at least two worker lanes: {worker_lanes:?}"
    );

    // Every group's replay closes inside a functional pass on its lane.
    for (lane, spans) in &lanes {
        for batch in spans.iter().filter(|s| s.2 == "tape_replay_batch") {
            assert!(
                spans.iter().any(|pass| pass.2 == "tape_record"
                    && pass.0 <= batch.0 + ROUNDING_SLACK_US
                    && batch.1 <= pass.1 + ROUNDING_SLACK_US),
                "lane {lane:?}: {batch:?} outside a functional pass"
            );
        }
    }

    // Inside one lane, spans either nest or are disjoint.
    for (lane, spans) in &mut lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<Span<'_>> = Vec::new();
        for &span in spans.iter() {
            while open
                .last()
                .is_some_and(|top| top.1 <= span.0 + ROUNDING_SLACK_US)
            {
                open.pop();
            }
            if let Some(parent) = open.last() {
                assert!(
                    span.1 <= parent.1 + ROUNDING_SLACK_US,
                    "lane {lane:?}: {span:?} partly overlaps {parent:?}"
                );
            }
            open.push(span);
        }
    }
}

//! Plain-text daemon configuration: `key = value` lines, `#` comments.
//!
//! Two file formats live here. The daemon config proper
//! ([`DaemonConfig::parse`]) carries the socket addresses, thread counts
//! and degradation watermarks. The EIA table ([`parse_eia_table`]) is a
//! separate file of `peer <id> <prefix>` lines so operators can hot-reload
//! the expected-address sets (route changes, new customers) without
//! restarting the collector — `POST /v1/reload` with the new table re-parses
//! it and republishes the snapshot through the engine.

use std::fmt;

use infilter_core::{EiaRegistry, Mode, PeerId};
use infilter_net::Prefix;

use crate::ladder::LadderConfig;

/// Everything `infilterd` needs to come up, with testing-friendly
/// defaults (loopback, ephemeral ports).
///
/// Marked `#[non_exhaustive]`: out-of-crate construction goes through
/// [`DaemonConfig::builder`] (which validates) or [`DaemonConfig::parse`],
/// so new knobs can keep arriving without breaking callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct DaemonConfig {
    /// UDP socket NetFlow v5 exporters send to.
    pub listen: String,
    /// TCP socket serving the control plane (`/v1/metrics`, `/v1/alerts`,
    /// `/v1/reload`, `/v1/healthz`, …).
    pub serve: String,
    /// UDP listener threads decoding datagrams into the intake rings.
    pub listeners: usize,
    /// Intake rings (batches are routed by `ingress % rings`).
    pub rings: usize,
    /// Bounded capacity of each intake ring, in batches.
    pub ring_capacity: usize,
    /// Suspect-path shards for the concurrent engine.
    pub shards: usize,
    /// BI or EI.
    pub mode: Mode,
    /// Maximum batches the worker drains per step before re-checking the
    /// control channel.
    pub batch_budget: usize,
    /// IDMEF alerts spooled for `/alerts` before the oldest are dropped.
    pub alert_spool: usize,
    /// Degradation-ladder watermarks.
    pub ladder: LadderConfig,
    /// Head sampling period: trace 1 in `trace_sample_every` datagrams
    /// (0 disables tracing entirely, including forced traces).
    pub trace_sample_every: u64,
    /// Completed traces retained for `/trace`, newest first.
    pub trace_capacity: usize,
    /// Structured events retained for `/events`, newest first.
    pub journal_capacity: usize,
    /// Feed the attack-shape sketches on every N-th suspect per peer
    /// (0 disables the `/ops` shape layer).
    pub shape_sample_every: u64,
    /// Top-K table size for `/ops` and the labeled shape gauges.
    pub shape_top_k: usize,
    /// Length of one attack-shape interval, seconds.
    pub shape_window_secs: u64,
    /// Sealed attack-shape intervals retained for `/ops?window=N`.
    pub shape_windows: usize,
    /// Per-peer drift score (0.0..=1.0) at which a `peer_drift` journal
    /// event fires.
    pub drift_threshold: f64,
    /// Maximum distinct peers tracked by per-peer counter families
    /// (0 = unbounded); overflow peers share one aggregate cell.
    pub peer_family_cap: usize,
    /// Directory of the durable EIA store (`None` = persistence off; the
    /// daemon then forgets dynamic adoptions on restart).
    pub store_dir: Option<String>,
    /// Roll (and fsync) a store log segment once it reaches this many
    /// bytes.
    pub store_segment_bytes: u64,
    /// Compact the store — seal a snapshot and drop the log it covers —
    /// every N appended adoption records (0 = seal only at shutdown).
    pub store_compact_every: u64,
    /// Per-peer expected prefixes (the preloaded EIA table).
    pub peers: Vec<(PeerId, Prefix)>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            serve: "127.0.0.1:0".to_string(),
            listeners: 2,
            rings: 4,
            ring_capacity: 512,
            shards: 4,
            mode: Mode::Enhanced,
            batch_budget: 64,
            alert_spool: 4096,
            ladder: LadderConfig::default(),
            trace_sample_every: 1024,
            trace_capacity: 256,
            journal_capacity: 1024,
            shape_sample_every: 128,
            shape_top_k: 8,
            shape_window_secs: 5,
            shape_windows: 24,
            drift_threshold: 0.6,
            peer_family_cap: 1024,
            store_dir: None,
            store_segment_bytes: 1 << 20,
            store_compact_every: 8192,
            peers: Vec::new(),
        }
    }
}

/// Builder for [`DaemonConfig`] — the only way to construct one outside
/// this crate besides [`DaemonConfig::parse`]. `build()` runs the same
/// validation the parser does, so an impossible config (zero rings, an
/// inverted ladder) is caught at construction, not at bind time.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfigBuilder {
    cfg: DaemonConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {$(
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.cfg.$name = value;
            self
        }
    )*};
}

impl DaemonConfigBuilder {
    builder_setters! {
        /// UDP socket NetFlow v5 exporters send to.
        listen: String,
        /// TCP socket serving the control plane.
        serve: String,
        /// UDP listener threads.
        listeners: usize,
        /// Intake rings.
        rings: usize,
        /// Bounded capacity of each intake ring, in batches.
        ring_capacity: usize,
        /// Suspect-path shards for the concurrent engine.
        shards: usize,
        /// BI or EI.
        mode: Mode,
        /// Maximum batches drained per worker step.
        batch_budget: usize,
        /// IDMEF alert spool size.
        alert_spool: usize,
        /// Degradation-ladder watermarks.
        ladder: LadderConfig,
        /// Head sampling period for tracing (0 disables).
        trace_sample_every: u64,
        /// Completed traces retained for `/trace`.
        trace_capacity: usize,
        /// Structured events retained for `/events`.
        journal_capacity: usize,
        /// Shape-sketch sampling stride (0 disables the shape layer).
        shape_sample_every: u64,
        /// Top-K table size for `/ops`.
        shape_top_k: usize,
        /// Length of one attack-shape interval, seconds.
        shape_window_secs: u64,
        /// Sealed shape intervals retained.
        shape_windows: usize,
        /// Drift score at which a `peer_drift` event fires.
        drift_threshold: f64,
        /// Per-peer counter family cap (0 = unbounded).
        peer_family_cap: usize,
        /// Durable EIA store directory (`None` = persistence off).
        store_dir: Option<String>,
        /// Store log segment roll size, bytes.
        store_segment_bytes: u64,
        /// Store compaction cadence in appended records (0 = at shutdown).
        store_compact_every: u64,
    }

    /// Adds one preloaded EIA entry.
    pub fn peer(mut self, peer: PeerId, prefix: Prefix) -> Self {
        self.cfg.peers.push((peer, prefix));
        self
    }

    /// Adds many preloaded EIA entries.
    pub fn peers<I: IntoIterator<Item = (PeerId, Prefix)>>(mut self, peers: I) -> Self {
        self.cfg.peers.extend(peers);
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns the same [`ParseError`] shape the file parser uses (line 0)
    /// when a value is out of range or the ladder is inconsistent.
    pub fn build(self) -> Result<DaemonConfig, ParseError> {
        self.cfg.validate().map_err(|why| err(0, why))?;
        Ok(self.cfg)
    }
}

/// A rejected line or value in a config or EIA-table file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub why: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.why)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, why: impl Into<String>) -> ParseError {
    ParseError {
        line,
        why: why.into(),
    }
}

impl DaemonConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> DaemonConfigBuilder {
        DaemonConfigBuilder::default()
    }

    /// Parses the daemon config format. Unknown keys are errors with a
    /// nearest-known-key suggestion (a typoed watermark silently falling
    /// back to its default is how overload protection quietly disappears
    /// in production).
    ///
    /// ```text
    /// listen = 127.0.0.1:2055
    /// serve  = 127.0.0.1:9100
    /// listeners = 2
    /// mode = enhanced
    /// skip_nns_above = 0.50
    /// bi_only_above  = 0.80
    /// recover_below  = 0.25
    /// recover_after  = 64
    /// peer 1 3.0.0.0/11
    ///
    /// [store]
    /// dir = /var/lib/infilterd/eia
    /// segment_bytes = 1048576
    /// compact_every = 8192
    /// ```
    ///
    /// The `[store]` section keys are also accepted flat anywhere as
    /// `store_dir`, `store_segment_bytes`, `store_compact_every`.
    ///
    /// # Errors
    ///
    /// Returns the first offending line.
    pub fn parse(text: &str) -> Result<DaemonConfig, ParseError> {
        let mut cfg = DaemonConfig::default();
        let mut in_store_section = false;
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                match section.trim() {
                    "store" => in_store_section = true,
                    other => return Err(err(n, format!("unknown section `[{other}]`"))),
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("peer ") {
                in_store_section = false;
                cfg.peers.push(parse_peer_line(rest, n)?);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(n, format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            // `[store] dir = ...` and a flat `store_dir = ...` are the
            // same key; normalise before matching.
            let scoped;
            let key = if in_store_section && !key.starts_with("store_") {
                scoped = format!("store_{key}");
                scoped.as_str()
            } else {
                key
            };
            let Some(known) = KEYS.iter().find(|k| k.name == key) else {
                let why = match suggest_key(key) {
                    Some(near) => format!("unknown key `{key}` (did you mean `{near}`?)"),
                    None => format!("unknown key `{key}`"),
                };
                return Err(err(n, why));
            };
            (known.set)(&mut cfg, value, n)?;
        }
        cfg.validate().map_err(|why| err(0, why))?;
        Ok(cfg)
    }

    /// Writes the config in the format [`DaemonConfig::parse`] reads: every
    /// key (the store's under their flat `store_*` spellings, so lines
    /// appended to the output are not read as `[store]` keys), then the
    /// `peer` lines. Parsing the result gives `self` back.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for key in KEYS {
            out.push_str(format!("{} = {}", key.name, (key.get)(self)).trim_end());
            out.push('\n');
        }
        for (peer, prefix) in &self.peers {
            out.push_str(&format!("peer {} {prefix}\n", peer.0));
        }
        out
    }

    fn validate(&self) -> Result<(), String> {
        if self.listeners == 0 {
            return Err("listeners must be >= 1".into());
        }
        if self.rings == 0 {
            return Err("rings must be >= 1".into());
        }
        if self.ring_capacity == 0 {
            return Err("ring_capacity must be >= 1".into());
        }
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        if self.batch_budget == 0 {
            return Err("batch_budget must be >= 1".into());
        }
        if self.alert_spool == 0 {
            return Err("alert_spool must be >= 1".into());
        }
        if self.shape_sample_every != 0 && self.shape_top_k == 0 {
            return Err("shape_top_k must be >= 1 while the shape layer is on".into());
        }
        if self.shape_sample_every != 0 && self.shape_windows == 0 {
            return Err("shape_windows must be >= 1 while the shape layer is on".into());
        }
        if self.store_dir.is_some() && self.store_segment_bytes == 0 {
            return Err("store_segment_bytes must be >= 1 while the store is on".into());
        }
        self.ladder.validate()
    }

    /// Builds the preloaded EIA registry from the `peer` lines.
    pub fn eia_registry(&self, adoption_threshold: u32) -> EiaRegistry {
        let mut eia = EiaRegistry::new(adoption_threshold);
        eia.preload_all(self.peers.iter().copied());
        eia
    }
}

/// Parses an EIA table (`peer <id> <prefix>` lines, `#` comments) — the
/// body `POST /v1/reload` accepts. `key = value` daemon directives are
/// skipped, so operators can reload straight from the full config file
/// they serve with (`--data-binary @infilterd.conf`); only the peer
/// lines take effect, and anything else is still an error.
///
/// # Errors
///
/// Returns the first offending line; an empty table is an error (reloading
/// to an empty registry would flag every flow at every peer).
pub fn parse_eia_table(text: &str) -> Result<Vec<(PeerId, Prefix)>, ParseError> {
    let mut peers = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let n = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line.contains('=') || line.starts_with('[') {
            continue;
        }
        let rest = line
            .strip_prefix("peer ")
            .ok_or_else(|| err(n, format!("expected `peer <id> <prefix>`, got `{line}`")))?;
        peers.push(parse_peer_line(rest, n)?);
    }
    if peers.is_empty() {
        return Err(err(0, "EIA table holds no peer lines"));
    }
    Ok(peers)
}

/// One `key = value` directive: how its value is read into the config and
/// how the config's value is written back.
struct Key {
    name: &'static str,
    set: fn(&mut DaemonConfig, &str, usize) -> Result<(), ParseError>,
    get: fn(&DaemonConfig) -> String,
}

/// A key whose value is one field read by `$parse` and written by `Display`.
macro_rules! field_key {
    ($name:literal, $parse:ident, $($field:tt)+) => {
        Key {
            name: $name,
            set: |cfg, value, n| {
                cfg.$($field)+ = $parse($name, value, n)?;
                Ok(())
            },
            get: |cfg| cfg.$($field)+.to_string(),
        }
    };
}

/// Every key [`DaemonConfig::parse`] accepts — the one declaration the
/// parser, the typo suggestions and [`DaemonConfig::render`] all walk.
const KEYS: &[Key] = &[
    field_key!("listen", parse_text, listen),
    field_key!("serve", parse_text, serve),
    field_key!("listeners", parse_num, listeners),
    field_key!("rings", parse_num, rings),
    field_key!("ring_capacity", parse_num, ring_capacity),
    field_key!("shards", parse_num, shards),
    Key {
        name: "mode",
        set: |cfg, value, n| {
            cfg.mode = match value {
                "basic" | "bi" => Mode::Basic,
                "enhanced" | "ei" => Mode::Enhanced,
                other => return Err(err(n, format!("unknown mode `{other}`"))),
            };
            Ok(())
        },
        get: |cfg| match cfg.mode {
            Mode::Basic => "basic".to_string(),
            Mode::Enhanced => "enhanced".to_string(),
        },
    },
    field_key!("batch_budget", parse_num, batch_budget),
    field_key!("alert_spool", parse_num, alert_spool),
    field_key!("skip_nns_above", parse_frac, ladder.skip_nns_above),
    field_key!("bi_only_above", parse_frac, ladder.bi_only_above),
    field_key!("recover_below", parse_frac, ladder.recover_below),
    field_key!("recover_after", parse_num, ladder.recover_after),
    field_key!("trace_sample_every", parse_num, trace_sample_every),
    field_key!("trace_capacity", parse_num, trace_capacity),
    field_key!("journal_capacity", parse_num, journal_capacity),
    field_key!("shape_sample_every", parse_num, shape_sample_every),
    field_key!("shape_top_k", parse_num, shape_top_k),
    field_key!("shape_window_secs", parse_num, shape_window_secs),
    field_key!("shape_windows", parse_num, shape_windows),
    field_key!("drift_threshold", parse_frac, drift_threshold),
    field_key!("peer_family_cap", parse_num, peer_family_cap),
    Key {
        name: "store_dir",
        set: |cfg, value, _| {
            cfg.store_dir = (!value.is_empty()).then(|| value.to_string());
            Ok(())
        },
        get: |cfg| cfg.store_dir.clone().unwrap_or_default(),
    },
    field_key!("store_segment_bytes", parse_num, store_segment_bytes),
    field_key!("store_compact_every", parse_num, store_compact_every),
];

/// The nearest known key within a small edit distance, if any — enough to
/// turn `skip_nns_abvoe` into an actionable error.
fn suggest_key(unknown: &str) -> Option<&'static str> {
    KEYS.iter()
        .map(|k| (edit_distance(unknown, k.name), k.name))
        .min()
        .filter(|&(d, k)| d <= 2 || d * 3 <= k.len())
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance, two-row rolling table. Config keys are a
/// couple dozen characters at most, so O(nm) is nothing.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn parse_peer_line(rest: &str, n: usize) -> Result<(PeerId, Prefix), ParseError> {
    let mut parts = rest.split_whitespace();
    let id: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(n, "peer line needs a numeric id"))?;
    let prefix: Prefix = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(n, "peer line needs a CIDR prefix"))?;
    if parts.next().is_some() {
        return Err(err(n, "trailing tokens after `peer <id> <prefix>`"));
    }
    Ok((PeerId(id), prefix))
}

fn parse_text(_key: &str, value: &str, _n: usize) -> Result<String, ParseError> {
    Ok(value.to_string())
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str, n: usize) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| err(n, format!("{key} wants an integer, got `{value}`")))
}

fn parse_frac(key: &str, value: &str, n: usize) -> Result<f64, ParseError> {
    let v: f64 = value
        .parse()
        .map_err(|_| err(n, format!("{key} wants a fraction, got `{value}`")))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(err(n, format!("{key} must be within 0.0..=1.0, got {v}")));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config() {
        let cfg = DaemonConfig::parse(
            "# infilterd\nlisten = 0.0.0.0:2055\nserve = 127.0.0.1:9100\n\
             listeners = 3\nmode = basic # BI only\nskip_nns_above = 0.6\n\
             trace_sample_every = 64\ntrace_capacity = 32\njournal_capacity = 128\n\
             peer 1 3.0.0.0/11\npeer 2 3.32.0.0/11\n",
        )
        .expect("parses");
        assert_eq!(cfg.listen, "0.0.0.0:2055");
        assert_eq!(cfg.listeners, 3);
        assert_eq!(cfg.mode, Mode::Basic);
        assert_eq!(cfg.ladder.skip_nns_above, 0.6);
        assert_eq!(cfg.trace_sample_every, 64);
        assert_eq!(cfg.trace_capacity, 32);
        assert_eq!(cfg.journal_capacity, 128);
        let shaped = DaemonConfig::parse(
            "shape_sample_every = 1\nshape_top_k = 4\nshape_window_secs = 2\n\
             shape_windows = 12\ndrift_threshold = 0.5\npeer_family_cap = 64\n",
        )
        .expect("parses");
        assert_eq!(shaped.shape_sample_every, 1);
        assert_eq!(shaped.shape_top_k, 4);
        assert_eq!(shaped.shape_window_secs, 2);
        assert_eq!(shaped.shape_windows, 12);
        assert_eq!(shaped.drift_threshold, 0.5);
        assert_eq!(shaped.peer_family_cap, 64);
        // The shape layer can be switched off; its sibling knobs are then
        // allowed to be zero.
        assert!(DaemonConfig::parse("shape_sample_every = 0\nshape_top_k = 0\n").is_ok());
        assert!(DaemonConfig::parse("shape_top_k = 0\n").is_err());
        assert!(DaemonConfig::parse("shape_windows = 0\n").is_err());
        assert!(DaemonConfig::parse("drift_threshold = 1.5\n").is_err());
        // Tracing can be switched off outright; 0 is not a config error.
        assert_eq!(
            DaemonConfig::parse("trace_sample_every = 0\n")
                .expect("parses")
                .trace_sample_every,
            0
        );
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[0].0, PeerId(1));
    }

    #[test]
    fn builder_validates_like_the_parser() {
        let cfg = DaemonConfig::builder()
            .listeners(3)
            .mode(Mode::Basic)
            .store_dir(Some("/tmp/eia".into()))
            .store_compact_every(64)
            .peer(PeerId(1), "3.0.0.0/11".parse().unwrap())
            .build()
            .expect("valid");
        assert_eq!(cfg.listeners, 3);
        assert_eq!(cfg.store_dir.as_deref(), Some("/tmp/eia"));
        assert_eq!(cfg.store_compact_every, 64);
        assert_eq!(cfg.peers.len(), 1);
        assert!(DaemonConfig::builder().rings(0).build().is_err());
        assert!(DaemonConfig::builder()
            .store_dir(Some("/tmp/eia".into()))
            .store_segment_bytes(0)
            .build()
            .is_err());
    }

    #[test]
    fn parses_the_store_section_and_flat_aliases() {
        let cfg = DaemonConfig::parse(
            "listen = 127.0.0.1:2055\n\n[store]\ndir = /var/lib/infilterd/eia\n\
             segment_bytes = 65536\ncompact_every = 100\n",
        )
        .expect("parses");
        assert_eq!(cfg.store_dir.as_deref(), Some("/var/lib/infilterd/eia"));
        assert_eq!(cfg.store_segment_bytes, 65536);
        assert_eq!(cfg.store_compact_every, 100);
        let flat = DaemonConfig::parse(
            "store_dir = ./eia\nstore_segment_bytes = 4096\nstore_compact_every = 0\n",
        )
        .expect("parses");
        assert_eq!(flat.store_dir.as_deref(), Some("./eia"));
        assert_eq!(flat.store_segment_bytes, 4096);
        // Persistence stays off by default and on an empty dir value.
        assert_eq!(DaemonConfig::parse("").unwrap().store_dir, None);
        assert_eq!(
            DaemonConfig::parse("store_dir =\n").unwrap().store_dir,
            None
        );
        assert!(DaemonConfig::parse("[stoer]\n")
            .unwrap_err()
            .why
            .contains("unknown section"));
        assert!(DaemonConfig::parse("[store]\nlisten = 1.2.3.4:1\n").is_err());
    }

    #[test]
    fn unknown_keys_come_with_a_suggestion() {
        let e = DaemonConfig::parse("skip_nns_abvoe = 0.5\n").unwrap_err();
        assert!(e.why.contains("unknown key"), "{e}");
        assert!(e.why.contains("did you mean `skip_nns_above`?"), "{e}");
        let e = DaemonConfig::parse("[store]\nsegment_byte = 1\n").unwrap_err();
        assert!(e.why.contains("did you mean `store_segment_bytes`?"), "{e}");
        // Nothing close: no misleading suggestion.
        let e = DaemonConfig::parse("zzzzqqqq = 1\n").unwrap_err();
        assert!(e.why.contains("unknown key"), "{e}");
        assert!(!e.why.contains("did you mean"), "{e}");
    }

    /// A value for `key` its parser accepts and that reads back different
    /// from the default's.
    fn off_default(key: &Key, default: &DaemonConfig) -> String {
        let was = (key.get)(default);
        let candidates = [
            was.parse::<u64>().ok().map(|n| (n + 1).to_string()),
            was.parse::<f64>().ok().map(|x| (x / 2.0).to_string()),
            Some(format!("{was}7")),
            Some("basic".to_string()),
        ];
        candidates
            .into_iter()
            .flatten()
            .find(|value| {
                let mut probe = default.clone();
                (key.set)(&mut probe, value, 0).is_ok() && (key.get)(&probe) != was
            })
            .unwrap_or_else(|| panic!("no off-default candidate for `{}`", key.name))
    }

    #[test]
    fn a_rendered_config_parses_back_to_itself() {
        let default = DaemonConfig::default();
        assert_eq!(
            DaemonConfig::parse(&default.render()).expect("the default renders valid"),
            default
        );
        // Every key the parser accepts, moved off its default: a key that
        // `render` forgot (or wrote wrongly) comes back as the default.
        let mut cfg = default.clone();
        cfg.peers = vec![
            (PeerId(1), "3.0.0.0/11".parse().unwrap()),
            (PeerId(2), "3.32.0.0/11".parse().unwrap()),
        ];
        for key in KEYS {
            (key.set)(&mut cfg, &off_default(key, &default), 0).expect("accepted above");
        }
        assert_eq!(
            DaemonConfig::parse(&cfg.render()).expect("renders valid"),
            cfg
        );
    }

    #[test]
    fn every_key_is_suggested_for_its_own_typo() {
        for key in KEYS {
            let typo = &key.name[..key.name.len() - 1];
            let e = DaemonConfig::parse(&format!("{typo} = 1\n")).unwrap_err();
            assert!(
                e.why.contains(&format!("did you mean `{}`?", key.name)),
                "`{typo}`: {e}"
            );
        }
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(DaemonConfig::parse("skip_nns_abvoe = 0.5\n")
            .unwrap_err()
            .why
            .contains("unknown key"));
        assert!(DaemonConfig::parse("bi_only_above = 1.5\n")
            .unwrap_err()
            .why
            .contains("0.0..=1.0"));
        assert!(DaemonConfig::parse("listeners = 0\n").is_err());
        assert!(DaemonConfig::parse("peer one 3.0.0.0/11\n").is_err());
    }

    #[test]
    fn rejects_inverted_watermarks() {
        let e = DaemonConfig::parse("skip_nns_above = 0.9\nbi_only_above = 0.5\n").unwrap_err();
        assert!(e.why.contains("bi_only_above"), "{e}");
    }

    #[test]
    fn eia_table_round_trips() {
        let peers =
            parse_eia_table("# table\npeer 1 3.0.0.0/11\npeer 2 3.32.0.0/11\n").expect("parses");
        assert_eq!(peers.len(), 2);
        assert!(parse_eia_table("").is_err());
        assert!(parse_eia_table("route 1 3.0.0.0/11").is_err());
    }

    #[test]
    fn eia_table_accepts_a_full_daemon_config() {
        let peers = parse_eia_table(
            "listen = 127.0.0.1:2055\nserve = 127.0.0.1:9100\nmode = enhanced\n\
             peer 1 3.0.0.0/11\npeer 2 3.32.0.0/11\n",
        )
        .expect("daemon directives are skipped");
        assert_eq!(peers.len(), 2);
        // A config with no peer lines still refuses to empty the registry.
        assert!(parse_eia_table("listen = 127.0.0.1:2055\n").is_err());
    }
}

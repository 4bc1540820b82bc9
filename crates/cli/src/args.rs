//! Hand-rolled argument parsing (keeping the dependency set minimal).

use powerlens_obs::TraceMode;
use powerlens_serve::ServeConfig;
use std::fmt;

/// CLI usage text.
pub const USAGE: &str = "usage:
  powerlens-cli zoo
  powerlens-cli inspect  <model>
  powerlens-cli import   <manifest.json> [--format human|json|sarif]
  powerlens-cli sweep    <model> [--platform P] [--batch N] [--images N]
  powerlens-cli plan     <model>|--model PATH [--platform P] [--batch N] [--images N]
                         [--models PATH]
  powerlens-cli plan-batch [model...] [--platform P] [--batch N] [--models PATH]
                           [--threads N] [--model PATH]
  powerlens-cli compare  <model>|--model PATH [--platform P] [--batch N] [--images N]
                         [--models PATH]
  powerlens-cli train    [--platform P] [--nets N] [--out PATH]
  powerlens-cli trace    <model> [--platform P] [--batch N] [--images N] [--out PATH]
  powerlens-cli faultsim <model> [--platform P] [--batch N] [--images N]
                         [--faults SPEC] [--fault-seed N] [--hybrid]
  powerlens-cli hybridsim <model> [--platform P] [--batch N] [--images N]
                          [--faults SPEC] [--fault-seed N]
  powerlens-cli lint     <model>|--all|--model PATH [--platform P]
                         [--format human|json|sarif] [--baseline FILE]
                         [--cache MODE] [--cache-dir DIR]
  powerlens-cli stats    [report.json]
  powerlens-cli serve    [--addr A] [--port N] [--threads N] [--queue-depth N]
                         [--platform P] [--batch N] [--images N]
                         [--cache MODE] [--cache-dir DIR] [--models PATH]

platforms: agx (default), tx2, cloud

import reads an ONNX-like JSON model manifest (schema in docs/INGEST.md),
runs the ingest lint pack (PL7xx) over it, and prints the lowered layer
table. Model-taking subcommands also accept --model PATH to run on an
imported manifest instead of a zoo model; a manifest that fails the ingest
gate never reaches the planner.

faultsim runs a robustness report: each controller (PowerLens plan, its
degraded wrapper falling back to BiM, and BiM itself) runs once clean and
once under the seeded fault plan, and the report prints energy-efficiency
retention per controller; it exits 1 when the degraded wrapper retains
less than 90% of BiM's retention. `compare` and `trace` also accept
--faults SPEC [--fault-seed N]: SPEC is comma-separated key=value pairs
(switch_fail, gpu_switch_fail, cpu_switch_fail, jitter, cap, drop, noise,
perturb, perturb_sigma, retries, backoff, phase, phase_at, seed); plans are
linted (PL4xx) before any fault is injected

hybridsim runs the online-adaptation report: the PowerLens plan, the hybrid
governor (plan + telemetry drift detection + bounded re-planning) and BiM
each run once clean and once under a seeded fault storm with a mid-trace
workload phase change, and the report prints energy-efficiency recovery per
controller plus the hybrid ladder's counters; it exits 1 when the hybrid's
faulted EE falls below the static plan's or 90% of BiM's. `compare` and
`faultsim` also accept --hybrid to add the hybrid governor row to their
line-ups

plan-batch plans every named model (default: the whole zoo) through the
content-addressed plan cache with parallel workers.

planning subcommands accept --cache {off,mem,disk} [--cache-dir DIR]: reuse
plan outcomes keyed by graph+config+models+platform; `mem` caches within the
process, `disk` also persists one JSON entry per key under DIR (default:
results/plan-cache). `lint --cache` reuses lint reports the same way, keyed
by graph+rules-version+platform+batch, under DIR/lint.

lint exit codes: 0 = clean, 1 = error-severity findings, 2 = bad arguments,
3 = findings not present in the --baseline SARIF file (the ratchet gate:
old findings are grandfathered, new ones fail; see docs/LINTS.md).

every subcommand also accepts --trace {off,log,json}: profile the run with
the observability layer; `log` streams events to stderr, `json` writes
results/trace.json; both print a stats summary at the end

serve runs the planning-as-a-service daemon (see docs/SERVING.md): POST
/plan, /compare and /lint over HTTP, GET /metrics and /healthz, POST
/shutdown. --port 0 picks an ephemeral port (printed on startup);
--threads sets the worker count (0 = all cores); --queue-depth bounds the
admission queue (beyond it clients get 429); serve caches in memory and
simulates 16 images per /compare task unless --cache or --images say
otherwise";

/// Shared options across subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Target platform name.
    pub platform: String,
    /// Inference batch size.
    pub batch: usize,
    /// Images per run.
    pub images: usize,
    /// Path to trained models (optional).
    pub models: Option<String>,
    /// Path to an external model manifest (`--model PATH`): the subcommand
    /// runs on the imported graph instead of a zoo model.
    pub model: Option<String>,
    /// Dataset networks for training.
    pub nets: usize,
    /// Output path for training.
    pub out: String,
    /// Lint report format (`--format {human,json,sarif}`).
    pub format: String,
    /// SARIF baseline for the lint ratchet (`--baseline FILE`).
    pub baseline: Option<String>,
    /// Observability mode (`--trace {off,log,json}`).
    pub trace: TraceMode,
    /// Plan-cache mode (`--cache {off,mem,disk}`).
    pub cache: String,
    /// Plan-cache directory for `--cache disk`.
    pub cache_dir: String,
    /// Worker threads for batch planning (`0` = all cores).
    pub threads: usize,
    /// Fault-injection spec (`--faults key=value,...`), `None` = clean run.
    pub faults: Option<String>,
    /// Seed override for the fault streams (`--fault-seed N`); when absent
    /// the spec's own `seed=` (default 42) applies.
    pub fault_seed: Option<u64>,
    /// Interface the `serve` daemon binds (`--addr A`).
    pub addr: String,
    /// Port for the `serve` daemon (`--port N`; `0` = ephemeral).
    pub port: u16,
    /// Admission-queue depth for the `serve` daemon (`--queue-depth N`).
    pub queue_depth: usize,
    /// Add the hybrid governor row to compare/faultsim line-ups
    /// (`--hybrid`).
    pub hybrid: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            platform: "agx".into(),
            batch: 8,
            images: 48,
            models: None,
            model: None,
            nets: 600,
            out: "powerlens_models.json".into(),
            format: "human".into(),
            baseline: None,
            trace: TraceMode::Off,
            cache: "off".into(),
            cache_dir: "results/plan-cache".into(),
            threads: 0,
            faults: None,
            fault_seed: None,
            addr: "127.0.0.1".into(),
            port: 8780,
            queue_depth: 64,
            hybrid: false,
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List evaluation models.
    Zoo,
    /// Print a model's layer table.
    Inspect { model: String },
    /// Import an external model manifest through the ingest lint gate.
    Import { path: String, opts: Options },
    /// Frequency sweep.
    Sweep { model: String, opts: Options },
    /// Power view + instrumentation plan.
    Plan { model: String, opts: Options },
    /// Plan many models through the cache with parallel workers.
    PlanBatch {
        /// Models to plan; empty means the whole zoo.
        models: Vec<String>,
        opts: Options,
    },
    /// Compare against the baselines.
    Compare { model: String, opts: Options },
    /// Train the prediction models.
    Train { opts: Options },
    /// Export a frequency/power trace CSV for a PowerLens run.
    Trace { model: String, opts: Options },
    /// Robustness report: clean vs faulted runs across controllers.
    FaultSim { model: String, opts: Options },
    /// Online-adaptation report: hybrid governor vs plan vs BiM under a
    /// fault storm with a mid-trace phase change.
    HybridSim { model: String, opts: Options },
    /// Static analysis of one model (or the whole zoo with `--all`).
    Lint {
        model: Option<String>,
        opts: Options,
    },
    /// Render the stats table from a saved `--trace json` report.
    Stats { path: Option<String> },
    /// Run the planning-as-a-service daemon.
    Serve { opts: Options },
}

/// Parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<String, ParseError> {
    it.next()
        .cloned()
        .ok_or_else(|| ParseError(format!("{flag} requires a value")))
}

fn parse_usize(flag: &str, v: &str) -> Result<usize, ParseError> {
    let n: usize = v
        .parse()
        .map_err(|_| ParseError(format!("{flag}: {v:?} is not a positive integer")))?;
    if n == 0 {
        return Err(ParseError(format!("{flag} must be positive")));
    }
    Ok(n)
}

/// Applies the flags in `it` over `opts`, the subcommand's defaults.
fn parse_options<'a>(
    mut opts: Options,
    mut it: impl Iterator<Item = &'a String>,
) -> Result<Options, ParseError> {
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--platform" => {
                let v = take_value("--platform", &mut it)?;
                match v.as_str() {
                    "agx" | "tx2" | "cloud" => opts.platform = v,
                    other => {
                        return Err(ParseError(format!(
                            "unknown platform {other:?} (expected agx, tx2 or cloud)"
                        )))
                    }
                }
            }
            "--batch" => opts.batch = parse_usize("--batch", &take_value("--batch", &mut it)?)?,
            "--images" => opts.images = parse_usize("--images", &take_value("--images", &mut it)?)?,
            "--nets" => opts.nets = parse_usize("--nets", &take_value("--nets", &mut it)?)?,
            "--models" => opts.models = Some(take_value("--models", &mut it)?),
            "--model" => opts.model = Some(take_value("--model", &mut it)?),
            "--out" => opts.out = take_value("--out", &mut it)?,
            "--format" => {
                let v = take_value("--format", &mut it)?;
                match v.as_str() {
                    "human" | "text" | "json" | "sarif" => opts.format = v,
                    other => {
                        return Err(ParseError(format!(
                            "unknown lint format {other:?} (expected human, json or sarif)"
                        )))
                    }
                }
            }
            "--trace" => {
                let v = take_value("--trace", &mut it)?;
                opts.trace = TraceMode::parse(&v).ok_or_else(|| {
                    ParseError(format!(
                        "unknown trace mode {v:?} (expected off, log or json)"
                    ))
                })?;
            }
            "--cache" => {
                let v = take_value("--cache", &mut it)?;
                match v.as_str() {
                    "off" | "mem" | "disk" => opts.cache = v,
                    other => {
                        return Err(ParseError(format!(
                            "unknown cache mode {other:?} (expected off, mem or disk)"
                        )))
                    }
                }
            }
            "--cache-dir" => opts.cache_dir = take_value("--cache-dir", &mut it)?,
            "--baseline" => opts.baseline = Some(take_value("--baseline", &mut it)?),
            "--faults" => opts.faults = Some(take_value("--faults", &mut it)?),
            "--fault-seed" => {
                let v = take_value("--fault-seed", &mut it)?;
                let seed: u64 = v
                    .parse()
                    .map_err(|_| ParseError(format!("--fault-seed: {v:?} is not an integer")))?;
                opts.fault_seed = Some(seed);
            }
            "--threads" => {
                // `0` is valid here: "use all available cores".
                let v = take_value("--threads", &mut it)?;
                opts.threads = v
                    .parse()
                    .map_err(|_| ParseError(format!("--threads: {v:?} is not an integer")))?;
            }
            "--addr" => opts.addr = take_value("--addr", &mut it)?,
            "--port" => {
                // `0` is valid here: "pick an ephemeral port".
                let v = take_value("--port", &mut it)?;
                opts.port = v
                    .parse()
                    .map_err(|_| ParseError(format!("--port: {v:?} is not a port number")))?;
            }
            "--queue-depth" => {
                opts.queue_depth =
                    parse_usize("--queue-depth", &take_value("--queue-depth", &mut it)?)?
            }
            "--hybrid" => opts.hybrid = true,
            other => return Err(ParseError(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

/// Parses a full argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let mut it = argv.iter();
    let sub = it
        .next()
        .ok_or_else(|| ParseError("missing subcommand".into()))?;
    match sub.as_str() {
        "zoo" => {
            if it.next().is_some() {
                return Err(ParseError("zoo takes no arguments".into()));
            }
            Ok(Command::Zoo)
        }
        "inspect" => {
            let model = it
                .next()
                .cloned()
                .ok_or_else(|| ParseError("inspect requires a model name".into()))?;
            if it.next().is_some() {
                return Err(ParseError("inspect takes only a model name".into()));
            }
            Ok(Command::Inspect { model })
        }
        "import" => {
            let path = it
                .next()
                .cloned()
                .ok_or_else(|| ParseError("import requires a manifest path".into()))?;
            if path.starts_with("--") {
                return Err(ParseError(
                    "import requires a manifest path before its options".into(),
                ));
            }
            Ok(Command::Import {
                path,
                opts: parse_options(Options::default(), it)?,
            })
        }
        "sweep" | "plan" | "compare" | "trace" | "faultsim" | "hybridsim" => {
            // The positional name may be omitted when --model PATH supplies
            // an imported manifest instead.
            let rest: Vec<&String> = it.collect();
            let (model, flags) = match rest.first() {
                Some(first) if !first.starts_with("--") => ((*first).clone(), &rest[1..]),
                _ => (String::new(), &rest[..]),
            };
            let opts = parse_options(Options::default(), flags.iter().copied())?;
            if model.is_empty() && opts.model.is_none() {
                return Err(ParseError(format!(
                    "{sub} requires a model name or --model PATH"
                )));
            }
            if !model.is_empty() && opts.model.is_some() {
                return Err(ParseError(format!(
                    "{sub} takes either a model name or --model PATH, not both"
                )));
            }
            Ok(match sub.as_str() {
                "sweep" => Command::Sweep { model, opts },
                "plan" => Command::Plan { model, opts },
                "trace" => Command::Trace { model, opts },
                "faultsim" => Command::FaultSim { model, opts },
                "hybridsim" => Command::HybridSim { model, opts },
                _ => Command::Compare { model, opts },
            })
        }
        "plan-batch" => {
            let rest: Vec<&String> = it.collect();
            let split = rest
                .iter()
                .position(|a| a.starts_with("--"))
                .unwrap_or(rest.len());
            let models = rest[..split].iter().map(|s| (*s).clone()).collect();
            let opts = parse_options(Options::default(), rest[split..].iter().copied())?;
            Ok(Command::PlanBatch { models, opts })
        }
        "train" => Ok(Command::Train {
            opts: parse_options(Options::default(), it)?,
        }),
        "serve" => {
            // The daemon's own cache and `/compare` image defaults, not
            // the one-shot subcommands' `off` and 48.
            let daemon = ServeConfig::default();
            let defaults = Options {
                cache: daemon.cache.to_string(),
                images: daemon.images,
                ..Options::default()
            };
            Ok(Command::Serve {
                opts: parse_options(defaults, it)?,
            })
        }
        "lint" => {
            let first = it
                .next()
                .ok_or_else(|| ParseError("lint requires a model name or --all".into()))?;
            let (model, opts) = if first == "--all" {
                (None, parse_options(Options::default(), it)?)
            } else if first.starts_with("--") {
                // Flags only: valid when --model PATH names the subject.
                let rest: Vec<&String> = std::iter::once(first).chain(it).collect();
                let opts = parse_options(Options::default(), rest.into_iter())?;
                if opts.model.is_none() {
                    return Err(ParseError(
                        "lint requires a model name, --all or --model PATH".into(),
                    ));
                }
                (None, opts)
            } else {
                (Some(first.clone()), parse_options(Options::default(), it)?)
            };
            if model.is_some() && opts.model.is_some() {
                return Err(ParseError(
                    "lint takes either a model name or --model PATH, not both".into(),
                ));
            }
            Ok(Command::Lint { model, opts })
        }
        "stats" => {
            let path = it.next().cloned();
            if it.next().is_some() {
                return Err(ParseError("stats takes at most one report path".into()));
            }
            Ok(Command::Stats { path })
        }
        other => Err(ParseError(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_zoo() {
        assert_eq!(parse(&v(&["zoo"])).unwrap(), Command::Zoo);
        assert!(parse(&v(&["zoo", "extra"])).is_err());
    }

    #[test]
    fn parses_plan_with_options() {
        let cmd = parse(&v(&[
            "plan",
            "resnet34",
            "--platform",
            "tx2",
            "--batch",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Plan { model, opts } => {
                assert_eq!(model, "resnet34");
                assert_eq!(opts.platform, "tx2");
                assert_eq!(opts.batch, 4);
                assert_eq!(opts.images, 48); // default preserved
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_platform() {
        let err = parse(&v(&["sweep", "alexnet", "--platform", "orin"])).unwrap_err();
        assert!(err.0.contains("unknown platform"));
    }

    #[test]
    fn rejects_zero_batch() {
        assert!(parse(&v(&["sweep", "alexnet", "--batch", "0"])).is_err());
        assert!(parse(&v(&["sweep", "alexnet", "--batch", "x"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        let err = parse(&v(&["compare", "alexnet", "--models"])).unwrap_err();
        assert!(err.0.contains("requires a value"));
    }

    #[test]
    fn parses_train_defaults() {
        match parse(&v(&["train"])).unwrap() {
            Command::Train { opts } => {
                assert_eq!(opts.nets, 600);
                assert_eq!(opts.out, "powerlens_models.json");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_cache_flags() {
        match parse(&v(&[
            "plan",
            "alexnet",
            "--cache",
            "disk",
            "--cache-dir",
            "/tmp/pc",
        ]))
        .unwrap()
        {
            Command::Plan { opts, .. } => {
                assert_eq!(opts.cache, "disk");
                assert_eq!(opts.cache_dir, "/tmp/pc");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["sweep", "alexnet", "--cache", "mem"])).unwrap() {
            Command::Sweep { opts, .. } => {
                assert_eq!(opts.cache, "mem");
                assert_eq!(opts.cache_dir, "results/plan-cache"); // default preserved
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&v(&["plan", "alexnet", "--cache", "ram"])).unwrap_err();
        assert!(err.0.contains("unknown cache mode"));
    }

    #[test]
    fn parses_plan_batch() {
        match parse(&v(&["plan-batch", "alexnet", "vgg19", "--cache", "mem"])).unwrap() {
            Command::PlanBatch { models, opts } => {
                assert_eq!(models, vec!["alexnet".to_string(), "vgg19".to_string()]);
                assert_eq!(opts.cache, "mem");
            }
            other => panic!("unexpected {other:?}"),
        }
        // No models: the whole zoo, with default options.
        match parse(&v(&["plan-batch"])).unwrap() {
            Command::PlanBatch { models, opts } => {
                assert!(models.is_empty());
                assert_eq!(opts.cache, "off");
                assert_eq!(opts.threads, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["plan-batch", "--threads", "2"])).unwrap() {
            Command::PlanBatch { opts, .. } => assert_eq!(opts.threads, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["plan-batch", "--threads", "x"])).is_err());
    }

    #[test]
    fn parses_trace_flag() {
        match parse(&v(&["plan", "alexnet", "--trace", "json"])).unwrap() {
            Command::Plan { opts, .. } => assert_eq!(opts.trace, TraceMode::Json),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["train", "--trace", "log"])).unwrap() {
            Command::Train { opts } => assert_eq!(opts.trace, TraceMode::Log),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&v(&["plan", "alexnet", "--trace", "loud"])).unwrap_err();
        assert!(err.0.contains("unknown trace mode"));
    }

    #[test]
    fn parses_trace() {
        match parse(&v(&["trace", "vgg19", "--out", "t.csv"])).unwrap() {
            Command::Trace { model, opts } => {
                assert_eq!(model, "vgg19");
                assert_eq!(opts.out, "t.csv");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_faultsim_and_fault_flags() {
        match parse(&v(&[
            "faultsim",
            "alexnet",
            "--faults",
            "switch_fail=0.2,drop=0.1",
            "--fault-seed",
            "7",
        ]))
        .unwrap()
        {
            Command::FaultSim { model, opts } => {
                assert_eq!(model, "alexnet");
                assert_eq!(opts.faults.as_deref(), Some("switch_fail=0.2,drop=0.1"));
                assert_eq!(opts.fault_seed, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        // faultsim without a spec is valid: it uses the default sweep.
        match parse(&v(&["faultsim", "resnet34"])).unwrap() {
            Command::FaultSim { model, opts } => {
                assert_eq!(model, "resnet34");
                assert_eq!(opts.faults, None);
                assert_eq!(opts.fault_seed, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // compare and trace accept the same flags.
        match parse(&v(&["compare", "alexnet", "--faults", "switch_fail=0.5"])).unwrap() {
            Command::Compare { opts, .. } => {
                assert_eq!(opts.faults.as_deref(), Some("switch_fail=0.5"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["faultsim"])).is_err());
        let err = parse(&v(&["faultsim", "alexnet", "--fault-seed", "x"])).unwrap_err();
        assert!(err.0.contains("not an integer"));
    }

    #[test]
    fn parses_hybridsim_and_the_hybrid_flag() {
        match parse(&v(&["hybridsim", "alexnet", "--faults", "switch_fail=0.3"])).unwrap() {
            Command::HybridSim { model, opts } => {
                assert_eq!(model, "alexnet");
                assert_eq!(opts.faults.as_deref(), Some("switch_fail=0.3"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // hybridsim without a spec uses the default storm.
        match parse(&v(&["hybridsim", "resnet34"])).unwrap() {
            Command::HybridSim { model, opts } => {
                assert_eq!(model, "resnet34");
                assert_eq!(opts.faults, None);
                assert!(!opts.hybrid);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["hybridsim"])).is_err());
        // --hybrid opts the row into compare and faultsim.
        match parse(&v(&["compare", "alexnet", "--hybrid"])).unwrap() {
            Command::Compare { opts, .. } => assert!(opts.hybrid),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["faultsim", "alexnet", "--hybrid"])).unwrap() {
            Command::FaultSim { opts, .. } => assert!(opts.hybrid),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_import() {
        match parse(&v(&["import", "m.json", "--format", "json"])).unwrap() {
            Command::Import { path, opts } => {
                assert_eq!(path, "m.json");
                assert_eq!(opts.format, "json");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["import"])).is_err());
        assert!(parse(&v(&["import", "--format", "json"])).is_err());
    }

    #[test]
    fn parses_the_model_manifest_flag() {
        // --model stands in for the positional model name.
        match parse(&v(&["plan", "--model", "m.json", "--batch", "2"])).unwrap() {
            Command::Plan { model, opts } => {
                assert_eq!(model, "");
                assert_eq!(opts.model.as_deref(), Some("m.json"));
                assert_eq!(opts.batch, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["compare", "--model", "m.json"])).unwrap() {
            Command::Compare { model, opts } => {
                assert_eq!(model, "");
                assert_eq!(opts.model.as_deref(), Some("m.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["lint", "--model", "m.json"])).unwrap() {
            Command::Lint { model, opts } => {
                assert_eq!(model, None);
                assert_eq!(opts.model.as_deref(), Some("m.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["plan-batch", "--model", "m.json"])).unwrap() {
            Command::PlanBatch { models, opts } => {
                assert!(models.is_empty());
                assert_eq!(opts.model.as_deref(), Some("m.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Both a name and --model is ambiguous.
        assert!(parse(&v(&["plan", "alexnet", "--model", "m.json"])).is_err());
        assert!(parse(&v(&["lint", "alexnet", "--model", "m.json"])).is_err());
        // Neither is still an error.
        assert!(parse(&v(&["plan"])).is_err());
        assert!(parse(&v(&["plan", "--batch", "2"])).is_err());
    }

    #[test]
    fn parses_lint() {
        match parse(&v(&["lint", "alexnet", "--format", "sarif"])).unwrap() {
            Command::Lint { model, opts } => {
                assert_eq!(model.as_deref(), Some("alexnet"));
                assert_eq!(opts.format, "sarif");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["lint", "--all", "--platform", "tx2"])).unwrap() {
            Command::Lint { model, opts } => {
                assert_eq!(model, None);
                assert_eq!(opts.platform, "tx2");
                assert_eq!(opts.format, "human"); // default preserved
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["lint"])).is_err());
        assert!(parse(&v(&["lint", "--format", "json"])).is_err());
        let err = parse(&v(&["lint", "alexnet", "--format", "xml"])).unwrap_err();
        assert!(err.0.contains("unknown lint format"));
    }

    #[test]
    fn parses_serve() {
        match parse(&v(&["serve"])).unwrap() {
            Command::Serve { opts } => {
                assert_eq!(opts.addr, "127.0.0.1");
                assert_eq!(opts.port, 8780);
                assert_eq!(opts.queue_depth, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&[
            "serve",
            "--port",
            "0",
            "--queue-depth",
            "4",
            "--threads",
            "3",
            "--cache",
            "mem",
        ]))
        .unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.port, 0); // ephemeral is allowed
                assert_eq!(opts.queue_depth, 4);
                assert_eq!(opts.threads, 3);
                assert_eq!(opts.cache, "mem");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["serve", "--port", "x"])).is_err());
        assert!(parse(&v(&["serve", "--queue-depth", "0"])).is_err());
        assert!(parse(&v(&["serve", "--shards", "8"])).is_err());
    }

    #[test]
    fn serve_defaults_are_the_daemons_and_flags_override_them() {
        let daemon = ServeConfig::default();
        match parse(&v(&["serve"])).unwrap() {
            Command::Serve { opts } => {
                assert_eq!(opts.cache, "mem");
                assert_eq!(opts.cache, daemon.cache.to_string());
                assert_eq!(opts.images, 16);
                assert_eq!(opts.images, daemon.images);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["serve", "--cache", "off", "--images", "48"])).unwrap() {
            Command::Serve { opts } => {
                assert_eq!(opts.cache, "off");
                assert_eq!(opts.images, 48);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The one-shot subcommands keep theirs: the plan goldens print 48.
        match parse(&v(&["plan", "alexnet"])).unwrap() {
            Command::Plan { opts, .. } => {
                assert_eq!(opts.cache, "off");
                assert_eq!(opts.images, 48);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_stats() {
        assert_eq!(
            parse(&v(&["stats"])).unwrap(),
            Command::Stats { path: None }
        );
        assert_eq!(
            parse(&v(&["stats", "results/trace.json"])).unwrap(),
            Command::Stats {
                path: Some("results/trace.json".into())
            }
        );
        assert!(parse(&v(&["stats", "a.json", "b.json"])).is_err());
    }

    #[test]
    fn missing_subcommand_and_model() {
        assert!(parse(&[]).is_err());
        assert!(parse(&v(&["plan"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
    }
}

//! `kgag` — command-line interface to the KGAG reproduction.
//!
//! ```text
//! kgag stats   [--scale tiny|small|medium] [--dataset rand|simi|yelp]
//! kgag train   [--scale ..] [--dataset ..] [--epochs N] [--seed N]
//!              [--backend B] [--ls-weight F] [--checkpoint PATH]
//!              [--json]
//! kgag explain [--scale ..] [--dataset ..] [--epochs N] --group G [--item V]
//! kgag import  --name NAME --users N --items M \
//!              --interactions FILE --kg FILE --groups FILE [--epochs N]
//! kgag serve   [--scale ..] [--dataset ..] [--epochs N] [--seed N]
//!              [--backend B] [--checkpoint PATH] [--addr HOST:PORT]
//!              [--shards A,B,..]
//! kgag shard   --index I --count N [--scale ..] [--dataset ..]
//!              [--epochs N] [--seed N] [--checkpoint PATH] [--addr HOST:PORT]
//! ```
//!
//! `train` reports validation and test metrics under the shared
//! protocol and can persist the trained parameters; `import` runs the
//! same pipeline on user-provided TSV files (see
//! `kgag_data::import` for the formats); `serve` exposes a trained
//! model over the `kgag_serve` wire protocol (DESIGN.md §12) until
//! stdin closes. Every server is a model registry with the model bound
//! to tenant 0 (DESIGN.md §16), with live group lifecycle —
//! create/join/leave mutations take effect on the very next score
//! request (DESIGN.md §13).

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::{movielens_rand, movielens_simi, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{DatasetStats, GroupDataset};
use kgag_eval::EvalConfig;
use kgag_testkit::json::{Json, ToJson};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "stats" => cmd_stats(&opts),
        "train" => cmd_train(&opts),
        "explain" => cmd_explain(&opts),
        "import" => cmd_import(&opts),
        "serve" => cmd_serve(&opts),
        "shard" => cmd_shard(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    // when KGAG_TELEMETRY is active, close the stream with the
    // cumulative metric totals (no-op otherwise)
    kgag_obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
kgag — knowledge-aware group recommendation (ICDE 2021 reproduction)

USAGE:
    kgag stats   [--scale tiny|small|medium] [--dataset rand|simi|yelp]
    kgag train   [--scale S] [--dataset D] [--epochs N] [--seed N]
                 [--backend B] [--ls-weight F] [--checkpoint PATH]
                 [--json]
    kgag explain [--scale S] [--dataset D] [--epochs N] --group G [--item V]
    kgag import  --name NAME --users N --items M --interactions FILE
                 --kg FILE --groups FILE [--epochs N] [--json]
    kgag serve   [--scale S] [--dataset D] [--epochs N] [--seed N]
                 [--backend B] [--checkpoint PATH] [--addr HOST:PORT]
                 [--shards A,B,..]
    kgag shard   --index I --count N [--scale S] [--dataset D] [--epochs N]
                 [--seed N] [--checkpoint PATH] [--addr HOST:PORT]

--backend picks the propagation backend: gcn (default), graphsage,
kgnn-ls (label-smoothness regularised training; strength --ls-weight,
default 0.1), or interaction (member-interaction mixing). Checkpoints
carry the backend tag, so --checkpoint restores refuse a mismatched
--backend.
serve loads --checkpoint if the file exists (training and writing it
otherwise), binds --addr (default 127.0.0.1:0, port printed on stdout;
a \"start-up:\" line on stderr splits the launch time) and scores
requests until stdin reaches EOF or reads \"quit\". Every
server is a multi-tenant model registry (DESIGN.md §16) with the
checkpoint resident and bound to tenant 0. The un-tenanted wire
opcodes address tenant 0: score, and create/join/leave, which mutate
the live group table of tenant 0's active model so later score
requests see the new membership (groups at the trained size use the
full attention path, other sizes the cold-start path; DESIGN.md §13).
The registry opcodes manage the rest — LOAD server-local checkpoints
(rebuilt over the same dataset), BIND tenants, stage SHADOW candidates
(promotion is refused until the candidate reproduces live traffic
bit-for-bit), PROMOTE with zero downtime, ROLLBACK, RETIRE. PROMOTE and
ROLLBACK switch tenant 0 to the other model's own group table. Knobs:
KGAG_SERVE_BATCH_WINDOW_US, KGAG_SERVE_MAX_BATCH, KGAG_SERVE_QUEUE,
KGAG_SERVE_WORKERS (batching, per resident model); KGAG_QUOTA_RATE /
KGAG_QUOTA_BURST (per-tenant token-bucket admission; burst unset = off,
burst 0 = shed everything); KGAG_SHADOW_SAMPLE (mirror every Nth
request, 0 = off).
`serve --shards A,B,..` makes tenant 0's model the scatter-gather
router instead: shard peers (started with `kgag shard --index I
--count N` on the same dataset/config/checkpoint) hold the
embedding-table slices and answer draw/row queries; the router fuses
scores bit-identically to single-node serving (DESIGN.md §15) and keeps
no embedding table itself; it owns the group table, so create/join/leave
work as on any server. Knobs: KGAG_SHARD_TIMEOUT_MS (per-reply
deadline, default 2000) and KGAG_SHARD_QUEUE (per-peer queue depth,
default 64). A dead shard fails only the requests that needed it, with
typed errors. LOAD still builds in-process models.
Formats for `import` are documented in kgag_data::import: interactions
as `user<TAB>item`, KG as `head<TAB>rel<TAB>tail` (items = entities
0..M), groups as `m1,m2,...<TAB>v1,v2,...`.";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if key == "json" {
            out.insert(key.to_owned(), "true".into());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn scale(opts: &Flags) -> Result<Scale, String> {
    match opts.get("scale").map(String::as_str).unwrap_or("tiny") {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        other => Err(format!("unknown scale {other:?}")),
    }
}

fn dataset(opts: &Flags) -> Result<GroupDataset, String> {
    let s = scale(opts)?;
    match opts.get("dataset").map(String::as_str).unwrap_or("rand") {
        "rand" => Ok(movielens_rand(&MovieLensConfig::at_scale(s))),
        "simi" => Ok(movielens_simi(&MovieLensConfig::at_scale(s))),
        "yelp" => Ok(yelp(&YelpConfig::at_scale(s))),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn num_flag<T: std::str::FromStr>(opts: &Flags, key: &str) -> Result<Option<T>, String> {
    opts.get(key).map(|v| v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}"))).transpose()
}

fn config(opts: &Flags) -> Result<KgagConfig, String> {
    let mut cfg = KgagConfig::default();
    if let Some(e) = num_flag::<usize>(opts, "epochs")? {
        cfg.epochs = e;
    }
    if let Some(s) = num_flag::<u64>(opts, "seed")? {
        cfg.seed = s;
    }
    if let Some(tag) = opts.get("backend") {
        cfg.backend = kgag::Backend::from_tag(tag).ok_or_else(|| {
            let tags: Vec<&str> = kgag::Backend::all().iter().map(|b| b.tag()).collect();
            format!("--backend: unknown backend {tag:?} (one of {})", tags.join(", "))
        })?;
    }
    if let Some(w) = num_flag::<f32>(opts, "ls-weight")? {
        cfg.ls_weight = w;
    }
    let errs = cfg.validate();
    if !errs.is_empty() {
        return Err(format!("invalid config: {}", errs.join("; ")));
    }
    Ok(cfg)
}

fn cmd_stats(opts: &Flags) -> Result<(), String> {
    let ds = dataset(opts)?;
    let stats = ds.stats();
    if opts.contains_key("json") {
        println!("{}", stats.to_json().to_string_pretty());
    } else {
        print!("{}", DatasetStats::table_rows(&[stats]));
    }
    Ok(())
}

fn train_and_report(ds: &GroupDataset, opts: &Flags) -> Result<Kgag, String> {
    let cfg = config(opts)?;
    let split = split_dataset(ds, 0x5eed);
    let mut model = Kgag::new(ds, &split, cfg);
    eprintln!(
        "training on {} ({} groups, {} train pairs)...",
        ds.name,
        ds.num_groups(),
        split.group.train.len()
    );
    let report = model.fit(&split);
    eprintln!(
        "done: group loss {:.4} -> {:.4}",
        report.epochs.first().map(|e| e.group).unwrap_or(0.0),
        report.epochs.last().map(|e| e.group).unwrap_or(0.0),
    );
    let ecfg = EvalConfig::default();
    let val = eval_cases(ds, &split.group, EvalBucket::Validation);
    let test = eval_cases(ds, &split.group, EvalBucket::Test);
    // the cached batch scorer gives the per-case path's metrics bit for
    // bit (golden_check asserts it), in one fused pass per split
    let scorer = model.batch_scorer();
    let val_summary = model.evaluate_batched_with(&scorer, &val, &ecfg);
    let test_summary = model.evaluate_batched_with(&scorer, &test, &ecfg);
    if opts.contains_key("json") {
        let payload = Json::obj(vec![
            ("dataset", ds.name.to_json()),
            ("validation", val_summary.to_json()),
            ("test", test_summary.to_json()),
        ]);
        println!("{}", payload.to_string_pretty());
    } else {
        println!("validation  {val_summary}");
        println!("test        {test_summary}");
    }
    if let Some(path) = opts.get("checkpoint") {
        std::fs::write(path, model.save_checkpoint()).map_err(|e| e.to_string())?;
        eprintln!("checkpoint written to {path}");
    }
    Ok(model)
}

fn cmd_train(opts: &Flags) -> Result<(), String> {
    let ds = dataset(opts)?;
    train_and_report(&ds, opts)?;
    Ok(())
}

fn cmd_explain(opts: &Flags) -> Result<(), String> {
    let ds = dataset(opts)?;
    let group = num_flag::<u32>(opts, "group")?.ok_or("--group is required")?;
    if group >= ds.num_groups() {
        return Err(format!("group {group} out of range ({} groups)", ds.num_groups()));
    }
    let model = train_and_report(&ds, opts)?;
    let item = match num_flag::<u32>(opts, "item")? {
        Some(v) => v,
        None => {
            // default: the group's top-ranked item over the full catalog
            let all: Vec<u32> = (0..ds.num_items).collect();
            let scores = model.score_group_items(group, &all);
            kgag_eval::top_k(&scores, 1)[0]
        }
    };
    println!("\n{}", model.explain(group, item));
    Ok(())
}

/// Load the checkpoint when it exists; otherwise train and (if a path
/// was given) persist, so repeated `--checkpoint P` runs train exactly
/// once. Shared by `serve` and `shard` — a sharded deployment's peers
/// all reconstruct the identical model this way. Also returns the
/// checkpoint's content hash, taken from the bytes at hand so a serving
/// process never serialises its model a second time.
fn load_or_train(ds: &GroupDataset, opts: &Flags) -> Result<(Kgag, u64), String> {
    let cfg = config(opts)?;
    let epochs = cfg.epochs;
    let split = split_dataset(ds, 0x5eed);
    let mut model = Kgag::new(ds, &split, cfg);
    let hash = match opts.get("checkpoint").filter(|p| std::path::Path::new(p.as_str()).is_file()) {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("--checkpoint {path}: {e}"))?;
            let n = model.load_checkpoint(&bytes).map_err(|e| e.to_string())?;
            eprintln!("restored {n} tensors from {path}");
            kgag::checkpoint_hash(&bytes)
        }
        None => {
            eprintln!("no checkpoint to load; training {epochs} epochs on {} first...", ds.name);
            model.fit(&split);
            let bytes = model.save_checkpoint();
            if let Some(path) = opts.get("checkpoint") {
                std::fs::write(path, &bytes).map_err(|e| e.to_string())?;
                eprintln!("checkpoint written to {path}");
            }
            kgag::checkpoint_hash(&bytes)
        }
    };
    Ok((model, hash))
}

/// Spawn the stdin watcher: closing stdin (or typing "quit") triggers
/// the shutdown token — works under pipes, terminals and process
/// supervisors alike.
fn shutdown_on_stdin(token: &kgag_serve::ShutdownToken) {
    let token = token.clone();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim() == "quit" => break,
                Ok(_) => {}
            }
        }
        token.trigger();
    });
}

/// `kgag serve` — the registry server (DESIGN.md §16) booted with the
/// trained/loaded checkpoint resident and tenant 0 bound to it. The
/// entry is one live scorer whose group table the lifecycle opcodes
/// mutate (DESIGN.md §13): the model in process, or with
/// `--shards a,b,…` the scatter-gather router over shard peers running
/// the same dataset/config/checkpoint (`kgag shard`, DESIGN.md §15),
/// whose process keeps no embedding table. Either way the wire's LOAD
/// rebuilds further checkpoints in-process over the same dataset.
fn cmd_serve(opts: &Flags) -> Result<(), String> {
    use kgag_data::GroupLifecycle;
    use kgag_serve::{serve_tcp, RegistryConfig, RegistryServer, ShardConfig, ShardPool};
    use std::sync::Arc;
    let cfg = config(opts)?;
    // start-up split, reported on stderr once the listener is bound
    let mut clock = std::time::Instant::now();
    let mut lap = || {
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        clock = std::time::Instant::now();
        ms
    };
    let ds = dataset(opts)?;
    let dataset_ms = lap();
    let (model, hash) = load_or_train(&ds, opts)?;
    // the entry is refused exactly as LOAD refuses a checkpoint, before
    // any peer is contacted or the listener bound
    kgag_tensor::infer::scan_finite(model.store())
        .map_err(|e| format!("bootstrap checkpoint refused: {e}"))?;
    let checkpoint_ms = lap();
    let (entry, entry_part) = match opts.get("shards") {
        Some(shards) => {
            let addrs: Vec<&str> =
                shards.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
            if addrs.is_empty() {
                return Err("--shards needs at least one HOST:PORT".into());
            }
            let shard_cfg = ShardConfig::from_env();
            let pool =
                ShardPool::connect(&addrs, &shard_cfg).map_err(|e| format!("--shards: {e}"))?;
            eprintln!(
                "router over {} shard(s): {} entities, {} relation slots, timeout {:?}, queue {}",
                pool.count(),
                pool.num_entities(),
                pool.num_relation_slots(),
                shard_cfg.timeout,
                shard_cfg.queue,
            );
            let router = pool.into_scorer(&model).map_err(|e| format!("--shards: {e}"))?;
            // the router keeps clones of the small weights only; the
            // embedding tables live on the peers
            drop(model);
            (kgag::RegistryModel::new(Arc::new(router), hash), "shard router")
        }
        None => {
            let live = kgag::DynamicScorer::shared(Arc::new(model));
            match live.cache_bytes() {
                Some(b) => {
                    eprintln!("receptive-field cache resident: {:.1} KiB", b as f64 / 1024.0)
                }
                None => eprintln!("no receptive-field cache (no KG propagation)"),
            }
            (kgag::RegistryModel::new(Arc::new(live), hash), "receptive-field cache")
        }
    };
    eprintln!("lifecycle enabled: {} groups live", entry.group_count());
    eprintln!("engine kernels: {}", kgag_tensor::infer::isa());
    let entry_ms = lap();
    // LOAD rebuilds checkpoints over this dataset, never as a router:
    // the peers hold the bootstrap checkpoint's rows only
    let factory: kgag_serve::ModelFactory = Box::new(move |bytes, hash| {
        let split = split_dataset(&ds, 0x5eed);
        let mut m = Kgag::new(&ds, &split, cfg.clone());
        m.load_checkpoint(bytes).map_err(|e| e.to_string())?;
        kgag::RegistryModel::try_new(m, hash).map_err(|e| e.to_string())
    });
    let rcfg = RegistryConfig::from_env();
    let server = RegistryServer::bootstrap(rcfg.clone(), factory, entry)
        .map_err(|e| format!("bootstrap: {e}"))?;
    let burst = rcfg.quota_burst.map_or("unlimited".into(), |b| b.to_string());
    eprintln!(
        "registry: checkpoint {hash:016x} bound to tenant 0; quota rate {} burst {burst}, \
         shadow sample {}",
        rcfg.quota_rate, rcfg.shadow_sample
    );
    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let token = kgag_serve::ShutdownToken::new();
    shutdown_on_stdin(&token);
    let serve_cfg = &rcfg.serve;
    serve_tcp(&server, &addr, &token, |bound| {
        let bind_ms = lap();
        println!("serving on {bound}");
        eprintln!(
            "batch window {:?}, max batch {}, queue {}, workers {} — close stdin or type \
             \"quit\" to stop",
            serve_cfg.batch_window,
            serve_cfg.max_batch,
            serve_cfg.queue_capacity,
            serve_cfg.workers
        );
        eprintln!(
            "start-up: dataset {dataset_ms:.1} ms, checkpoint {checkpoint_ms:.1} ms, \
             {entry_part} {entry_ms:.1} ms, registry and bind {bind_ms:.1} ms"
        );
    })
    .map_err(|e| e.to_string())?;
    let groups = server.registry().resolve(0).map_err(|e| e.to_string())?.active.group_count();
    let models = server.registry().num_models();
    drop(server); // drain every entry's batcher before reporting
    eprintln!(
        "drained: {} responses in {} batches (mean fuse {:.2} requests), {} rejected, {} missed \
         deadlines",
        kgag_obs::counter("serve.responses").get(),
        kgag_obs::counter("serve.batches").get(),
        kgag_obs::histogram("serve.batch_requests").mean(),
        kgag_obs::counter("serve.requests_rejected").get(),
        kgag_obs::counter("serve.deadline_missed").get(),
    );
    eprintln!(
        "lifecycle: {} created, {} joins, {} leaves ({groups} groups final)",
        kgag_obs::counter("lifecycle.groups_created").get(),
        kgag_obs::counter("lifecycle.joins").get(),
        kgag_obs::counter("lifecycle.leaves").get(),
    );
    eprintln!(
        "registry: {} loads, {} promotions, {} rollbacks, {} retirements, shadow {} clean / {} \
         mismatch, {models} models resident",
        kgag_obs::counter("registry.loads").get(),
        kgag_obs::counter("registry.promotions").get(),
        kgag_obs::counter("registry.rollbacks").get(),
        kgag_obs::counter("registry.retirements").get(),
        kgag_obs::counter("registry.shadow_clean").get(),
        kgag_obs::counter("registry.shadow_mismatch").get(),
    );
    Ok(())
}

/// `kgag shard --index I --count N` — one shard peer: its contiguous
/// slice of the embedding tables plus the adjacency rows needed for
/// keyed neighbour draws, served over the shard wire protocol until
/// stdin closes. All peers and the router must load the same model
/// (same dataset/config/checkpoint).
fn cmd_shard(opts: &Flags) -> Result<(), String> {
    use kgag_serve::{serve_shard, ShutdownToken};
    let index = num_flag::<usize>(opts, "index")?.ok_or("--index is required")?;
    let count = num_flag::<usize>(opts, "count")?.ok_or("--count is required")?;
    if count == 0 || index >= count {
        return Err(format!("--index {index} out of --count {count}"));
    }
    let ds = dataset(opts)?;
    let (model, _) = load_or_train(&ds, opts)?;
    let state = model.shard_state(index, count);
    eprintln!(
        "shard {index}/{count}: entities {:?}, relations {:?}, ~{:.1} KiB resident",
        state.entity_range(),
        state.relation_range(),
        state.approx_bytes() as f64 / 1024.0,
    );
    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let token = ShutdownToken::new();
    shutdown_on_stdin(&token);
    serve_shard(&state, &addr, &token, |bound| {
        println!("shard {index}/{count} serving on {bound}");
        eprintln!("close stdin or type \"quit\" to stop");
    })
    .map_err(|e| e.to_string())
}

fn cmd_import(opts: &Flags) -> Result<(), String> {
    let name = opts.get("name").cloned().unwrap_or_else(|| "imported".into());
    let users = num_flag::<u32>(opts, "users")?.ok_or("--users is required")?;
    let items = num_flag::<u32>(opts, "items")?.ok_or("--items is required")?;
    let read = |key: &str| -> Result<String, String> {
        let path = opts.get(key).ok_or(format!("--{key} is required"))?;
        std::fs::read_to_string(path).map_err(|e| format!("--{key} {path}: {e}"))
    };
    let ds = kgag_data::import::load_dataset(
        &name,
        users,
        items,
        &read("interactions")?,
        &read("kg")?,
        &read("groups")?,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {}: {} users, {} items, {} groups (size {}), {} KG triples",
        ds.name,
        ds.num_users,
        ds.num_items,
        ds.num_groups(),
        ds.group_size,
        ds.kg.len()
    );
    train_and_report(&ds, opts)?;
    Ok(())
}

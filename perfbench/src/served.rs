//! `served_mix`: an open loop of merged queries and commits against
//! `pxml-server`, one client connection per tenant.
//!
//! Each connection sends its requests at their scheduled due times whether
//! or not the server keeps up. A request that cannot be sent on time waits
//! for the connection, and its latency runs from the due time, so a stall
//! counts against every request queued behind it. The generator's own
//! lateness (waking after the due time on an idle connection) is reported
//! as `gen.sched_lag_p99_ms`.
//!
//! The traced run also keeps an in-process mirror of each tenant — an
//! embedded warehouse with the same session configuration, fed the same
//! operations in the same order — and replays every acknowledged request on
//! it: the round trip minus the replay is the wire and server overhead.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pxml_core::FuzzyTree;
use pxml_query::Pattern;
use pxml_server::{Client, RemoteAnswers, RemoteStats, Server, ServerConfig};
use pxml_store::CommitPolicy;
use pxml_tree::parse_data_tree;
use pxml_warehouse::SessionConfig;

use crate::checks::directories_equivalent;
use crate::engine::{disk_bytes, fail, fresh_dir, Engine, Failure};
use crate::inputs::{ServedInputs, ServedKind, ServedOp};
use crate::report::Run;
use crate::stats::{median, ms, quantile, ratio, us};
use crate::trace::Tracer;

/// How long past its last due time a connection keeps sending; requests
/// still queued then are counted as failed, unsent.
const SEND_GRACE: Duration = Duration::from_secs(20);

fn session() -> SessionConfig {
    SessionConfig {
        commit: CommitPolicy::grouped(),
        ..SessionConfig::default()
    }
}

/// What one connection's sender saw.
#[derive(Default)]
struct Driven {
    submitted: u64,
    queries: u64,
    commits: u64,
    failed: u64,
    shed: u64,
    /// Requests never sent: the connection fell behind past the cutoff.
    unsent: u64,
    /// Latency of each scheduled request from its due time, in schedule
    /// order; infinity for one that failed, was shed or was never sent.
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    query_rtt_us: Vec<f64>,
    commit_rtt_us: Vec<f64>,
    wire_us: Vec<f64>,
    problems: Vec<String>,
    finished: Option<Instant>,
}

struct Started {
    server: Server,
    clients: Vec<Client>,
    root: PathBuf,
}

fn start(inputs: &ServedInputs, root: &Path) -> Result<Started, Failure> {
    let mut config = ServerConfig::new(root);
    config.session = session();
    let server = Server::start(config).map_err(|e| fail("start server", e))?;
    let mut clients = inputs
        .tenants
        .iter()
        .map(|tenant| Client::connect(server.local_addr(), tenant.as_str()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| fail("connect", e))?;
    for (tenant, doc, xml) in &inputs.docs {
        clients[*tenant]
            .open(doc, Some(xml))
            .map_err(|e| fail("open document", e))?;
    }
    Ok(Started {
        server,
        clients,
        root: root.to_path_buf(),
    })
}

/// An embedded copy of one tenant's documents for the traced replay.
fn mirror(
    inputs: &ServedInputs,
    tenant: usize,
    dir: &Path,
    tracer: &Arc<Tracer>,
) -> Result<Engine, Failure> {
    let (engine, _) = Engine::open(&fresh_dir(dir)?, session(), Some(tracer.clone()))?;
    for (_, doc, xml) in inputs.docs.iter().filter(|(t, _, _)| *t == tenant) {
        let tree = parse_data_tree(xml).map_err(|e| fail("parse XML", e))?;
        engine
            .warehouse
            .create_document(doc, tree)
            .map_err(|e| fail("create", e))?;
    }
    Ok(engine)
}

pub fn run(
    inputs: &ServedInputs,
    seconds: u64,
    tracer: Option<Arc<Tracer>>,
    work: &Path,
) -> Result<Run, Failure> {
    let mut run = Run::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // The first round's store becomes the recovery store, and cold reopens
    // of its tenants follow every round, so that they spread over the run.
    let recovery = work.join("recovery");
    for round in 0.. {
        // Set-up: start the server on an empty root, connect, open every
        // document from its XML.
        let root = fresh_dir(&if round == 0 {
            recovery.clone()
        } else {
            work.join("server")
        })?;
        let clock = Instant::now();
        let started = start(inputs, &root)?;
        run.setup_s.push(clock.elapsed().as_secs_f64());
        let published = serve(inputs, started, tracer.as_ref(), work, &mut run)?;
        if round == 0 {
            prepare_recovery(inputs, &recovery, &published, &mut run)?;
        }
        for tenant in &inputs.tenants {
            let (_, elapsed) = Engine::open(&recovery.join(tenant), session(), tracer.clone())?;
            run.recovery_ms.push(ms(elapsed));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(run)
}

/// Checks each tenant's reopened documents against what the server last
/// published, then checkpoints each document and journals the same number
/// of batches into it, so that every cold reopen replays journals of the
/// same length.
fn prepare_recovery(
    inputs: &ServedInputs,
    root: &Path,
    published: &[(usize, String, FuzzyTree)],
    run: &mut Run,
) -> Result<(), Failure> {
    for (t, tenant) in inputs.tenants.iter().enumerate() {
        let (reopened, _) = Engine::open(&root.join(tenant), session(), None)?;
        let docs = published.iter().zip(&inputs.recovery_tails);
        for ((_, doc, fuzzy), tail) in docs.filter(|((p, _, _), _)| *p == t) {
            let recovered = reopened
                .warehouse
                .snapshot(doc)
                .map_err(|e| fail("pin", e))?;
            run.check(
                "reopened tenant documents equal their last published snapshots",
                directories_equivalent(fuzzy, recovered.fuzzy()),
            );
            reopened
                .warehouse
                .checkpoint(doc)
                .map_err(|e| fail("checkpoint", e))?;
            for batch in tail {
                reopened.commit(doc, std::slice::from_ref(batch), 0)?;
            }
        }
        reopened.close();
    }
    Ok(())
}

fn tenant_stats(clients: &mut [Client]) -> Result<Vec<RemoteStats>, Failure> {
    clients
        .iter_mut()
        .map(|client| client.stats().map_err(|e| fail("stats", e)))
        .collect()
}

fn answers_in_range(answers: &RemoteAnswers) -> bool {
    let ok = |p: f64| (0.0..=1.0).contains(&p);
    ok(answers.selection) && answers.answers.iter().all(|a| ok(a.probability))
}

/// Sends one connection's schedule.
fn drive(
    mut client: Client,
    ops: &[ServedOp],
    (origin, cutoff): (Instant, Instant),
    mirror: Option<&Engine>,
    tracer: Option<&Tracer>,
    connection: usize,
) -> (Client, Driven) {
    let mut d = Driven {
        latency_ms: vec![f64::INFINITY; ops.len()],
        ..Driven::default()
    };
    for (i, op) in ops.iter().enumerate() {
        let due = origin + Duration::from_micros(op.due_us);
        let free = Instant::now();
        if free > cutoff {
            d.unsent = (ops.len() - i) as u64;
            break;
        }
        if free < due {
            std::thread::sleep(due - free);
        }
        let sent = Instant::now();
        d.lag_ms
            .push(ms(sent.saturating_duration_since(due.max(free))));
        d.submitted += 1;
        let request = ((connection as u64) << 40) | i as u64;
        let name = match op.kind {
            ServedKind::Query(_) => "server.query",
            ServedKind::Commit(_) => "server.commit",
        };
        let span = tracer.map(|tracer| tracer.enter(name, Some(request)));
        let outcome = match &op.kind {
            ServedKind::Query(pattern) => client.query(&op.doc, pattern).map(Some),
            ServedKind::Commit(batch) => client.commit(&op.doc, batch).map(|_| None),
        };
        let finished = span.map(|span| span.finish());
        let done = Instant::now();
        d.finished = Some(done);
        let (rtt, latency) = (done - sent, done - due);
        let selection = match &outcome {
            Ok(Some(answers)) => Some(answers.selection),
            _ => None,
        };
        match outcome {
            Ok(Some(answers)) => {
                if !answers_in_range(&answers) {
                    d.failed += 1;
                    d.problems.push("merged probability outside [0, 1]".into());
                    continue;
                }
                d.queries += 1;
                d.latency_ms[i] = ms(latency);
                d.query_rtt_us.push(us(rtt));
            }
            Ok(None) => {
                d.commits += 1;
                d.latency_ms[i] = ms(latency);
                d.commit_rtt_us.push(us(rtt));
            }
            Err(error) if error.is_busy() => {
                d.shed += 1;
                continue;
            }
            Err(error) => {
                d.failed += 1;
                if d.problems.len() < 8 {
                    d.problems.push(format!("request to `{}`: {error}", op.doc));
                }
                continue;
            }
        }
        if let (Some(mirror), Some(tracer), Some(finished)) = (mirror, tracer, finished) {
            let _adopted = tracer.adopt(finished);
            let replay = match &op.kind {
                ServedKind::Query(pattern) => Pattern::parse(pattern)
                    .map_err(|e| fail("parse query", e))
                    .and_then(|pattern| mirror.query(&op.doc, &pattern, request))
                    .and_then(|(elapsed, answer)| match selection {
                        Some(p) if (p - answer.selection).abs() > 1e-9 => Err(format!(
                            "`{}` selects with {p} on the server, {} in process",
                            op.doc, answer.selection
                        )),
                        _ => Ok(elapsed),
                    }),
                ServedKind::Commit(batch) => mirror.commit(&op.doc, batch, request),
            };
            match replay {
                Ok(elapsed) => d.wire_us.push(us(rtt.saturating_sub(elapsed))),
                Err(problem) => d.problems.push(format!("mirror replay: {problem}")),
            }
        }
    }
    (client, d)
}

/// One round: runs the whole schedule against a freshly started server,
/// checks the server's accounting, and shuts it down. Returns the documents
/// as the server last published them.
fn serve(
    inputs: &ServedInputs,
    started: Started,
    tracer: Option<&Arc<Tracer>>,
    work: &Path,
    run: &mut Run,
) -> Result<Vec<(usize, String, FuzzyTree)>, Failure> {
    let Started {
        server,
        mut clients,
        root,
    } = started;
    let before = tenant_stats(&mut clients)?;
    let mirrors = match tracer {
        Some(tracer) => Some(
            (0..inputs.tenants.len())
                .map(|t| mirror(inputs, t, &work.join(format!("mirror-{t}")), tracer))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        None => None,
    };

    // Measured loop: one sender thread per connection.
    let origin = Instant::now();
    let horizon = inputs
        .schedules
        .iter()
        .filter_map(|ops| ops.last())
        .map(|op| op.due_us)
        .max()
        .unwrap_or(0);
    let cutoff = origin + Duration::from_micros(horizon) + SEND_GRACE;
    let driven: Vec<(Client, Driven)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .drain(..)
            .zip(&inputs.schedules)
            .enumerate()
            .map(|(t, (client, ops))| {
                let mirror = mirrors.as_ref().map(|m| &m[t]);
                let tracer = tracer.map(|tracer| &**tracer);
                scope.spawn(move || drive(client, ops, (origin, cutoff), mirror, tracer, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("sender thread panicked"))
            .collect()
    });
    let last = driven
        .iter()
        .filter_map(|(_, d)| d.finished)
        .max()
        .unwrap_or(origin);
    let wall = last - origin;
    let (mut clients, driven): (Vec<Client>, Vec<Driven>) = driven.into_iter().unzip();
    let after = tenant_stats(&mut clients)?;
    let latencies: Vec<(bool, f64)> = driven
        .iter()
        .zip(&inputs.schedules)
        .flat_map(|(d, ops)| {
            ops.iter()
                .map(|op| matches!(op.kind, ServedKind::Commit(_)))
                .zip(d.latency_ms.iter().copied())
        })
        .collect();
    run.round(&latencies, false);

    let mut lag = Vec::new();
    let (mut query_rtt, mut commit_rtt, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let (mut submitted, mut answered, mut committed, mut failed, mut shed) = (0, 0, 0, 0, 0);
    for (t, d) in driven.into_iter().enumerate() {
        if d.unsent > 0 {
            run.attempted += d.unsent;
            run.failed += d.unsent;
            run.problems
                .push(format!("connection {t} left {} requests unsent", d.unsent));
        }
        submitted += d.submitted;
        answered += d.queries;
        committed += d.commits;
        failed += d.failed;
        shed += d.shed;
        lag.extend(d.lag_ms);
        query_rtt.extend(d.query_rtt_us);
        commit_rtt.extend(d.commit_rtt_us);
        wire.extend(d.wire_us);
        run.problems.extend(d.problems);
        let evaluated = after[t].queries_evaluated - before[t].queries_evaluated;
        run.check(
            "STATS queries_evaluated delta equals the queries answered",
            (evaluated as u64 == d.queries)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "tenant {t}: server evaluated {evaluated}, client got {}",
                        d.queries
                    )
                }),
        );
        let applied = after[t].updates_applied - before[t].updates_applied;
        run.check(
            "STATS updates_applied delta equals the commits acknowledged",
            (applied as u64 == d.commits).then_some(()).ok_or_else(|| {
                format!(
                    "tenant {t}: server applied {applied}, client got {} acks",
                    d.commits
                )
            }),
        );
    }
    run.attempted += submitted;
    run.failed += failed + shed;
    run.updates = committed;
    run.ops_rounds
        .push(ratio((answered + committed) as f64, wall.as_secs_f64()));
    run.check(
        "submitted = acked + failed + shed",
        (submitted == answered + committed + failed + shed)
            .then_some(())
            .ok_or_else(|| {
                format!("{submitted} submitted, {answered}+{committed} acked, {failed} failed, {shed} shed")
            }),
    );
    let delta = |field: fn(&RemoteStats) -> usize| -> usize {
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| field(a) - field(b))
            .sum()
    };
    let fsyncs = delta(|s| s.fsyncs);
    let commits = delta(|s| s.grouped_commits);
    let windows = delta(|s| s.grouped_windows);
    run.layers.insert(
        "store.fsyncs_per_commit",
        ratio(fsyncs as f64, committed as f64),
    );
    run.layers.insert(
        "store.window_occupancy",
        ratio(commits as f64, windows as f64),
    );
    run.layers.insert("server.query_rtt_us", median(&query_rtt));
    run.layers
        .insert("server.commit_rtt_us", median(&commit_rtt));
    run.layers.insert("server.wire_us", median(&wire));
    *run.layers.entry("server.busy_sheds").or_insert(0.0) += shed as f64;
    run.layers
        .insert("gen.sched_lag_p99_ms", quantile(&lag, 0.99));

    // The documents as the server last published them, then shut down.
    let mut published = Vec::new();
    for (tenant, doc, _) in &inputs.docs {
        let (_, fuzzy) = clients[*tenant]
            .snapshot(doc)
            .map_err(|e| fail("snapshot", e))?;
        published.push((*tenant, doc.clone(), fuzzy));
    }
    for client in &mut clients {
        client.close().map_err(|e| fail("close", e))?;
    }
    drop(clients);
    server.shutdown();
    if let Some(mirrors) = mirrors {
        mirrors.into_iter().for_each(Engine::close);
    }
    run.stored_bytes = disk_bytes(&root);
    Ok(published)
}

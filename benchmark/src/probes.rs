//! Per-layer probes: each layer's public functions timed on their own,
//! at the geometry of the workload being measured (its code, one of its
//! erasure patterns, its sector size), in the same process and run as
//! the traced pass. Together with the trace they answer "where did the
//! time go" from outside the program: kernel GiB/s against a memcpy/XOR
//! roofline, tape against kernels, executor against tape, session
//! against executor, wire and frame costs per message.
//!
//! Every figure is the median of repeated timings inside a fixed budget.

use crate::host::nproc;
use crate::measure::Scale;
use crate::metrics::Metrics;
use crate::stats;
use crate::workloads::{decoder_config, encoded_stripe, parse_code, service, Code, Ledger};
use ppm_cluster::{crc32, seal_v2, unseal, CoordinatorRequest};
use ppm_codes::FailureScenario;
use ppm_core::{DecodePlan, Decoder, Executor, Planner, ScratchArena, Strategy, WirePlan};
use ppm_gf::{mul_xor_fused, xor_region, Backend, RegionMul};
use ppm_matrix::{Factorization, Matrix};
use ppm_stripe::Stripe;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The geometry probes run at.
pub struct ProbeCtx {
    pub spec: &'static str,
    pub code: Code,
    pub scenario: FailureScenario,
    pub sector_bytes: usize,
}

/// Median nanoseconds of `sample()`, which times one repetition itself
/// (so it can prepare inputs outside the timed part). One untimed
/// warm-up, then at least three samples, until `budget` is spent.
pub fn median_ns(budget: Duration, mut sample: impl FnMut() -> Duration) -> f64 {
    sample();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 100_000) {
        samples.push(sample().as_nanos() as f64);
    }
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// [`median_ns`] for operations too short to time singly: each sample is
/// `batch` back-to-back calls, reported per call.
fn median_ns_batched(budget: Duration, batch: u32, mut op: impl FnMut()) -> f64 {
    median_ns(budget, || {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        t.elapsed()
    }) / f64::from(batch)
}

fn gibps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / (ns / 1e9)
}

/// `dst (op)= src`, one region kernel under test.
type Kernel<'a> = Box<dyn FnMut(&[u8], &mut [u8]) + 'a>;

/// Region kernels over sector-sized pieces of a source set that is as
/// large as a big stripe (32 MiB) or, for small sectors, as many sectors
/// as a batch holds — so sources stream from where the workload's do.
fn gf_probes(sector_bytes: usize, budget: Duration, m: &mut Metrics) {
    let pieces = ((32usize << 20) / sector_bytes).clamp(4, 4096);
    let mut rng = StdRng::seed_from_u64(0x6766);
    let mut sources = vec![0u8; pieces * sector_bytes];
    rng.fill(sources.as_mut_slice());
    let mut dst = vec![0u8; sector_bytes];
    let src = |i: usize| &sources[(i % pieces) * sector_bytes..][..sector_bytes];
    // One sample = one sweep over every piece; rate = source bytes / time.
    let sweep_bytes = pieces * sector_bytes;
    let mut sweep = |mut kernel: Kernel<'_>| {
        let ns = median_ns(budget, || {
            let t = Instant::now();
            for i in 0..pieces {
                kernel(src(i), &mut dst);
            }
            t.elapsed()
        });
        black_box(&dst);
        gibps(sweep_bytes, ns)
    };

    let rm8 = RegionMul::<u8>::new(0x1D, Backend::Auto);
    let rm16 = RegionMul::<u16>::new(0x1D2B, Backend::Auto);
    m.put(
        "gf.memcpy_gibps",
        sweep(Box::new(|s, d| d.copy_from_slice(s))),
    );
    let xor = sweep(Box::new(xor_region));
    m.put("gf.xor_gibps", xor);
    let mul_xor = sweep(Box::new(|s, d| rm8.mul_xor(s, d)));
    m.put("gf.mul_xor_gibps.w8", mul_xor);
    m.put(
        "gf.mul_copy_gibps.w8",
        sweep(Box::new(|s, d| rm8.mul_copy(s, d))),
    );
    m.put(
        "gf.mul_xor_gibps.w16",
        sweep(Box::new(|s, d| rm16.mul_xor(s, d))),
    );
    m.put("gf.roofline_frac", mul_xor / xor);

    // Four sources fused into one destination sweep, as the tape's
    // same-destination runs execute.
    let consts: Vec<RegionMul<u8>> = [0x02u8, 0x1D, 0x53, 0xCA]
        .iter()
        .map(|&c| RegionMul::new(c, Backend::Auto))
        .collect();
    let groups = pieces / 4;
    let ns = median_ns(budget, || {
        let t = Instant::now();
        for g in 0..groups {
            let terms: [(&RegionMul<u8>, &[u8]); 4] =
                std::array::from_fn(|k| (&consts[k], src(g * 4 + k)));
            mul_xor_fused(&terms, &mut dst);
        }
        t.elapsed()
    });
    black_box(&dst);
    m.put(
        "gf.mul_xor_fused4_gibps.w8",
        gibps(groups * 4 * sector_bytes, ns),
    );

    let mut c = 1u8;
    let ns = median_ns_batched(budget, 64, || {
        c = c.wrapping_add(1).max(2);
        black_box(RegionMul::<u8>::new(c, Backend::Auto));
    });
    m.put("gf.table_build_ns", ns);
}

/// The square `F` (faulty columns, independent rows) and matching `S`
/// (surviving columns, same rows) of `scenario` under `h`.
fn f_and_s(h: &Matrix<u8>, scenario: &FailureScenario) -> Option<(Matrix<u8>, Matrix<u8>)> {
    let hf = h.select_columns(scenario.faulty());
    let rows = hf.select_independent_rows();
    (rows.len() == scenario.len()).then(|| {
        let surviving = scenario.surviving(h.cols());
        (
            hf.select_rows(&rows),
            h.select_columns(&surviving).select_rows(&rows),
        )
    })
}

fn matrix_probes(h: &Matrix<u8>, scenario: &FailureScenario, budget: Duration, m: &mut Metrics) {
    let Some((f, s)) = f_and_s(h, scenario) else {
        return;
    };
    let time = |op: &mut dyn FnMut()| {
        median_ns(budget, || {
            let t = Instant::now();
            op();
            t.elapsed()
        }) / 1e3
    };
    m.put(
        "matrix.factor_us",
        time(&mut || {
            black_box(Factorization::new(&f));
        }),
    );
    m.put(
        "matrix.inverse_us",
        time(&mut || {
            black_box(f.inverse());
        }),
    );
    if let Some(fact) = Factorization::new(&f) {
        m.put(
            "matrix.solve_mat_us",
            time(&mut || {
                black_box(fact.solve_mat(&s));
            }),
        );
    }
}

/// Times `op` on `work` with the scenario's sectors erased first
/// (untimed); returns median ns.
fn time_on_erased(
    budget: Duration,
    work: &mut Stripe,
    scenario: &FailureScenario,
    mut op: impl FnMut(&mut Stripe),
) -> f64 {
    median_ns(budget, || {
        work.erase(scenario);
        let t = Instant::now();
        op(work);
        t.elapsed()
    })
}

/// Times each of `ops` on `work` (erased first, untimed) once per round,
/// in an order shuffled anew each round so that no op always inherits
/// the same predecessor's cache state, until the budget for all of them
/// is spent; returns each op's median ns. One untimed round first.
fn interleaved<const N: usize>(
    budget: Duration,
    work: &mut Stripe,
    scenario: &FailureScenario,
    ops: [&mut dyn FnMut(&mut Stripe); N],
) -> [f64; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let started = Instant::now();
    let mut rounds = 0;
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    let mut rng = StdRng::seed_from_u64(0x6f72_6465);
    while rounds < 4 || (started.elapsed() < budget * N as u32 && rounds < 100_000) {
        order.shuffle(&mut rng);
        for &i in &order {
            work.erase(scenario);
            let t = Instant::now();
            ops[i](work);
            let elapsed = t.elapsed();
            if rounds > 0 {
                samples[i].push(elapsed.as_nanos() as f64);
            }
        }
        rounds += 1;
    }
    samples.map(|v| stats::median(&v).unwrap_or(f64::NAN))
}

/// Runs every universal probe at `ctx` and records the results in `m`.
pub fn run(ctx: &ProbeCtx, scale: Scale, m: &mut Metrics) {
    let budget = scale.probe_budget();
    let (code, scenario, sb) = (ctx.code, &ctx.scenario, ctx.sector_bytes);
    let threads = nproc();

    gf_probes(sb, budget, m);

    // codes / stripe: what the harness itself pays in set-up.
    let ns = median_ns(budget, || {
        let t = Instant::now();
        let _ = black_box(parse_code(ctx.spec));
        t.elapsed()
    });
    m.put("codes.build_ms", ns / 1e6);
    let ns = median_ns(budget, || {
        let t = Instant::now();
        black_box(code.parity_check_matrix());
        t.elapsed()
    });
    m.put("codes.h_build_us", ns / 1e3);
    let h = code.parity_check_matrix();

    matrix_probes(&h, scenario, budget, m);

    // core.planner: build on a miss, lookup on a hit, key construction.
    let planner = Planner::new(code, Backend::Auto);
    let ns = median_ns(budget, || {
        planner.clear_cache();
        let t = Instant::now();
        let _ = black_box(planner.plan_for(scenario));
        t.elapsed()
    });
    m.put("planner.build_us", ns / 1e3);
    let Ok((plan, _)) = planner.plan_for(scenario) else {
        return;
    };
    m.put(
        "planner.hit_ns",
        median_ns_batched(budget, 256, || {
            let _ = black_box(planner.plan_for(scenario));
        }),
    );
    m.put(
        "planner.key_ns",
        median_ns_batched(budget, 256, || {
            black_box(planner.plan_key(scenario));
        }),
    );
    m.put("plan.parallelism", plan.parallelism() as f64);

    // core.tape: compile a fresh plan's tape; shape of the compiled one.
    let ns = median_ns(budget, || {
        let fresh = DecodePlan::build(&h, scenario, Strategy::PpmAuto, Backend::Auto);
        let t = Instant::now();
        if let Ok(fresh) = &fresh {
            black_box(fresh.ensure_tape());
        }
        t.elapsed()
    });
    m.put("tape.compile_us", ns / 1e3);
    let tape = plan.ensure_tape();
    m.put("tape.segments", tape.segments() as f64);
    m.put(
        "tape.fused_continuations",
        tape.fused_continuations() as f64,
    );

    // One pristine stripe of the workload's shape, and a copy to damage.
    let svc1 = service(code, 1);
    let mut rng = StdRng::seed_from_u64(0x7072_6f62);
    let Ok(pristine) = encoded_stripe(&svc1, sb, &mut rng) else {
        return;
    };
    let mut work = pristine.clone();
    let ns = median_ns(budget, || {
        let t = Instant::now();
        black_box(pristine.clone());
        t.elapsed()
    });
    m.put("stripe.clone_us", ns / 1e3);
    let ns = median_ns(budget, || {
        let t = Instant::now();
        work.erase(scenario);
        t.elapsed()
    });
    m.put("stripe.erase_ns", ns);

    // The ladder from bare tape to full session, every rung a repair of
    // the same stripe: tape replay and the graph walker at T = 1 through
    // a warm arena, the executor at T = 1 and T = nproc, the unpartitioned
    // single-thread baseline (C1), the session's plain and verified
    // repair. Interleaved, so the differences between rungs are between
    // like-for-like medians.
    let dec1 = Decoder::new(decoder_config(1));
    let arena = ScratchArena::new();
    let exec1 = Executor::new(decoder_config(1));
    let exec_n = Executor::new(decoder_config(threads));
    let c1 = DecodePlan::build(&h, scenario, Strategy::TraditionalNormal, Backend::Auto).ok();
    let mut last_stats = None;
    let [tape_ns, graph_ns, exec1_ns, exec_n_ns, c1_ns, repair_ns, verified_ns] = interleaved(
        budget,
        &mut work,
        scenario,
        [
            &mut |s| drop(dec1.decode_tape_in(&plan, s, &arena)),
            &mut |s| drop(dec1.decode_in(&plan, s, &arena)),
            &mut |s| last_stats = exec1.decode(&plan, s).ok(),
            &mut |s| drop(exec_n.decode(&plan, s)),
            &mut |s| {
                if let Some(c1) = &c1 {
                    drop(dec1.decode_tape_in(c1, s, &arena));
                }
            },
            &mut |s| drop(svc1.repair(s, scenario)),
            &mut |s| drop(svc1.repair_verified(s, scenario)),
        ],
    );
    m.put("tape.exec_us", tape_ns / 1e3);
    m.put("tape.graph_x", graph_ns / tape_ns);
    m.put("executor.decode_us", exec1_ns / 1e3);
    m.put("executor.overhead_us", (exec1_ns - tape_ns) / 1e3);
    m.put("executor.thread_speedup", exec1_ns / exec_n_ns);
    if c1.is_some() {
        // The paper's headline ratio: C1 at one thread over PPM at nproc.
        m.put("plan.speedup_vs_c1", c1_ns / exec_n_ns);
    }
    m.put("service.repair_us", repair_ns / 1e3);
    m.put("service.over_executor_us", (repair_ns - exec1_ns) / 1e3);
    m.put(
        "service.verify_overhead_frac",
        verified_ns / repair_ns - 1.0,
    );
    if let Some(stats) = &last_stats {
        let total = stats.total_nanos.max(1) as f64;
        m.put("executor.phase_a_frac", stats.phase_a_nanos as f64 / total);
        m.put(
            "executor.phase_b_frac",
            stats.phase_b_nanos() as f64 / total,
        );
        // Dispatch and layout overhead: tape time over the time the fused
        // kernel alone would need for the bytes the tape moved (computed
        // from the region counters, not measured at the memory bus).
        if let Some(rate) = m.get("gf.mul_xor_fused4_gibps.w8") {
            let kernel_ns = stats.bytes_moved() as f64 / (rate * (1u64 << 30) as f64) * 1e9;
            m.put("tape.vs_kernel_x", tape_ns / kernel_ns);
        }
    }

    m.put(
        "arena.take_give_ns",
        median_ns_batched(budget, 256, || {
            arena.give(black_box(arena.take_dirty(sb)));
        }),
    );

    // The batch and stream drivers over enough stripes for the batch
    // driver to go one-worker-per-stripe (at least 2 x workers).
    let batch_len = ((16usize << 20) / pristine.total_bytes()).clamp(2 * threads, 256);
    let svc_n = service(code, threads);
    let mut batch: Vec<Stripe> = vec![pristine.clone(); batch_len];
    let mut batch_rate = |workers: usize| {
        let ns = median_ns(budget, || {
            for s in &mut batch {
                s.erase(scenario);
            }
            let t = Instant::now();
            let _ = black_box(svc_n.repair_batch(&mut batch, scenario, workers));
            t.elapsed()
        });
        batch_len as f64 / (ns / 1e9)
    };
    let w1 = batch_rate(1);
    let wn = batch_rate(threads);
    m.put("service.batch_w1_ops_per_s", w1);
    m.put("service.batch_wN_ops_per_s", wn);
    m.put("service.batch_speedup", wn / w1);
    // The stream driver takes its stripes by value and hands them back.
    let mut owned = Some(batch);
    let ns = median_ns(budget, || {
        let mut stripes = owned.take().unwrap_or_default();
        for s in &mut stripes {
            s.erase(scenario);
        }
        let t = Instant::now();
        let result = svc_n.repair_stream(stripes, scenario, threads);
        let elapsed = t.elapsed();
        owned = result.ok().map(|(stripes, _)| stripes);
        elapsed
    });
    m.put("service.stream_ops_per_s", batch_len as f64 / (ns / 1e9));
    drop(owned);

    // core.wire: plan → wire form → bytes → wire form → executable.
    let time_us = |op: &mut dyn FnMut()| {
        median_ns(budget, || {
            let t = Instant::now();
            op();
            t.elapsed()
        }) / 1e3
    };
    m.put(
        "wire.from_plan_us",
        time_us(&mut || {
            black_box(WirePlan::from_plan(&plan));
        }),
    );
    let wire = WirePlan::from_plan(&plan);
    m.put(
        "wire.encode_us",
        time_us(&mut || {
            black_box(wire.encode());
        }),
    );
    let bytes = wire.encode();
    m.put("wire.plan_bytes", bytes.len() as f64);
    m.put(
        "wire.decode_us",
        time_us(&mut || {
            let _ = black_box(WirePlan::decode(&bytes));
        }),
    );
    m.put(
        "wire.compile_us",
        time_us(&mut || {
            let _ = black_box(wire.compile::<u8>(Backend::Auto));
        }),
    );

    // cluster: the survivor and aggregator halves of partial-block
    // repair, and the per-frame / per-message costs at one sector of
    // payload.
    if let Ok(compiled) = wire.compile::<u8>(Backend::Auto) {
        let mut partials = None;
        let ns = time_on_erased(budget, &mut work, scenario, |s| {
            partials = exec1.wire_partials(&compiled, s).ok();
        });
        m.put("cluster.partials_us", ns / 1e3);
        if let Some(p) = partials.filter(|p| p.rest_pending) {
            m.put(
                "cluster.finish_rest_us",
                time_us(&mut || {
                    let _ = black_box(exec1.finish_rest(&compiled, &p.rest_blocks, sb));
                }),
            );
        }
    }
    let payload = pristine.sector(0).to_vec();
    m.put(
        "cluster.seal_ns",
        median_ns_batched(budget, 16, || {
            black_box(seal_v2(7, &payload));
        }),
    );
    let frame = seal_v2(7, &payload);
    let ns = median_ns(budget, || {
        let frames: Vec<Vec<u8>> = vec![frame.clone(); 16];
        let t = Instant::now();
        for f in frames {
            let _ = black_box(unseal(f));
        }
        t.elapsed()
    });
    m.put("cluster.unseal_ns", ns / 16.0);
    let ns = median_ns_batched(budget, 16, || {
        black_box(crc32(&payload));
    });
    m.put("cluster.crc32_gibps", gibps(payload.len(), ns));
    let request = CoordinatorRequest::Install {
        stripe: 42,
        sectors: vec![(0, payload.clone())],
    };
    m.put(
        "cluster.msg_encode_ns",
        median_ns_batched(budget, 16, || {
            black_box(request.encode());
        }),
    );
    let encoded = request.encode();
    m.put(
        "cluster.msg_decode_ns",
        median_ns_batched(budget, 16, || {
            let _ = black_box(CoordinatorRequest::decode(&encoded));
        }),
    );
}

/// Repairs one stripe of `ctx`'s shape in-process on a fresh session —
/// `repair_verified` when `verified`, as `run_sim` does for its reference
/// copy — and returns the median nanoseconds per stripe. For workloads
/// whose own session lives out of reach (inside `run_sim`, inside the
/// `ppm-cli` subprocess) this session's ledger, cache and arena counters
/// stand in for it.
pub fn reference_repair(
    ctx: &ProbeCtx,
    threads: usize,
    verified: bool,
    scale: Scale,
    m: &mut Metrics,
) -> f64 {
    let svc = service(ctx.code, threads);
    let mut rng = StdRng::seed_from_u64(0x0072_6566);
    let Ok(pristine) = encoded_stripe(&svc, ctx.sector_bytes, &mut rng) else {
        return f64::NAN;
    };
    let mut work = pristine.clone();
    let mut ledger = Ledger::default();
    let ns = time_on_erased(scale.probe_budget(), &mut work, &ctx.scenario, |s| {
        let stats = if verified {
            svc.repair_verified(s, &ctx.scenario)
        } else {
            svc.repair(s, &ctx.scenario)
        };
        match stats {
            Ok(stats) => ledger.absorb(&stats),
            Err(_) => {
                ledger.mismatches += 1;
                false
            }
        };
    });
    ledger.mismatches += u64::from(work != pristine);
    ledger.put(m, svc.cache_stats(), svc.arena().stats());
    ns
}

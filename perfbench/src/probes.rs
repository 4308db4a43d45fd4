//! Layer probes: single public calls at the workload's own shapes,
//! timed after warm-up, reported as medians over repeated calls.

use crate::inputs::{largest_block_rows, Inputs};
use crate::{median, Report};
use bns_comm::{create_world, TrafficClass};
use bns_nn::{Activation, SageLayer};
use bns_runtime::{run_tasks, Step, Task, Waker, WorkerConfig};
use bns_tensor::simd::{self, codec};
use bns_tensor::{Matrix, SeededRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wall-clock budget of one probe's timed calls.
const PROBE_S: f64 = 0.3;
/// Untimed calls before timing starts.
const WARMUP_CALLS: usize = 2;
/// Fewest timed calls per probe.
const MIN_CALLS: usize = 5;

/// Median of `sample()` after warm-up, and the number of samples
/// taken: at least `MIN_CALLS`, for at least `PROBE_S`.
fn median_sample(mut sample: impl FnMut() -> f64) -> (f64, usize) {
    for _ in 0..WARMUP_CALLS {
        sample();
    }
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < MIN_CALLS || start.elapsed().as_secs_f64() < PROBE_S {
        values.push(sample());
    }
    (median(&values), values.len())
}

/// Median seconds per call of `f` and the number of timed calls.
fn per_call_s(mut f: impl FnMut()) -> (f64, usize) {
    median_sample(|| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

pub fn run(report: &mut Report, inputs: &Inputs, hidden: &[usize], k: usize) {
    let plan = &inputs.plan;
    let mut rng = SeededRng::new(0x9e37);
    let d_in = plan.feat_dim;
    let d_out = hidden.first().copied().unwrap_or(plan.num_classes);

    // Matmul: the first layer's weight product on the largest partition.
    let rows = plan.parts.iter().map(|p| p.n_inner()).max().unwrap_or(1);
    let a = Matrix::random_uniform(rows, d_in, -1.0, 1.0, &mut rng);
    let b = Matrix::random_uniform(d_in, d_out, -1.0, 1.0, &mut rng);
    let (t, n) = per_call_s(|| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    let flops = 2.0 * (rows * d_in * d_out) as f64;
    report.set("tensor.matmul_gflops", flops / t / 1e9, n);

    // SAGE layer forward and backward on partition 0's local graph.
    let lp = &plan.parts[0];
    let g = &lp.local_graph;
    let layer = SageLayer::new(d_in, d_out, Activation::Relu, 0.0, &mut rng);
    let h = Matrix::random_uniform(lp.n_inner() + lp.n_boundary(), d_in, -1.0, 1.0, &mut rng);
    let d_h = Matrix::random_uniform(lp.n_inner(), d_out, -1.0, 1.0, &mut rng);
    let mut fwd_rng = SeededRng::new(1);
    let (t, n) = per_call_s(|| {
        black_box(layer.forward(g, &h, lp.n_inner(), &lp.inner_scale, false, &mut fwd_rng));
    });
    report.set("nn.sage_fwd_ms", t * 1e3, n);
    let (_, cache) = layer.forward(g, &h, lp.n_inner(), &lp.inner_scale, false, &mut fwd_rng);
    let (t, n) = per_call_s(|| {
        black_box(layer.backward(g, &cache, black_box(&d_h)));
    });
    report.set("nn.sage_bwd_ms", t * 1e3, n);

    // One boundary block of hidden features: int8 codec and transport.
    let block_rows = largest_block_rows(plan);
    let block = Matrix::random_uniform(block_rows, d_out, -1.0, 1.0, &mut rng);
    let f32_bytes = (block.len() * 4) as f64;
    let bk = simd::active();
    let mut wire = vec![0u8; block_rows * (d_out + codec::INT8_HEADER_BYTES)];
    let (t, n) = per_call_s(|| {
        codec::pack_int8(bk, &mut wire, black_box(block.as_slice()), d_out);
    });
    report.set("tensor.codec_int8_pack_gbps", f32_bytes / t / 1e9, n);
    let mut back = vec![0f32; block.len()];
    let (t, n) = per_call_s(|| {
        codec::unpack_int8(bk, &mut back, black_box(&wire), d_out, 1.0);
    });
    report.set("tensor.codec_int8_unpack_gbps", f32_bytes / t / 1e9, n);

    let mut world = create_world(2);
    let mut payload = Some(block.as_slice().to_vec());
    let (t, n) = per_call_s(|| {
        let (head, tail) = world.split_at_mut(1);
        let sent = payload.take().expect("payload returned by the last recv");
        head[0].send(1, 7, sent, TrafficClass::Boundary);
        payload = Some(black_box(tail[0].recv::<Vec<f32>>(0, 7)));
    });
    report.set("comm.sendrecv_gbps", f32_bytes / t / 1e9, n);

    let passes = (k * PINGPONG_ROUNDS) as f64;
    let (t, n) = median_sample(|| token_ring(k, PINGPONG_ROUNDS) / passes);
    report.set("runtime.pingpong_us", t * 1e6, n);
}

/// Token passes per task in one ring run.
const PINGPONG_ROUNDS: usize = 2_000;

/// How long the ring's last step waits before it finishes. `run_tasks`
/// can lose its end-of-run wake-up: a worker that is between finding
/// the ready queue empty and sleeping misses the notification the
/// finishing worker sends without holding the queue lock, and then
/// sleeps forever. A last step this long lets every other worker fall
/// asleep first. Training's last steps are long enough by themselves;
/// the ring's are not.
const LAST_STEP_PAUSE: Duration = Duration::from_millis(2);

/// One task of the token ring: holds the token, passes it to the next
/// task and wakes it, parks until the token comes back.
struct RingTask {
    me: usize,
    ring: Arc<Ring>,
    passes: usize,
}

struct Ring {
    holder: AtomicUsize,
    wakers: Mutex<Vec<Option<Waker>>>,
    rounds: usize,
    first_pass: OnceLock<Instant>,
    last_pass: OnceLock<Instant>,
}

impl Task for RingTask {
    fn bind(&mut self, waker: Waker) {
        self.ring.wakers.lock().expect("ring wakers")[self.me] = Some(waker);
    }

    fn step(&mut self) -> Step {
        if self.ring.holder.load(Ordering::SeqCst) != self.me {
            return Step::Park;
        }
        self.ring.first_pass.get_or_init(Instant::now);
        let wakers = self.ring.wakers.lock().expect("ring wakers");
        let next = (self.me + 1) % wakers.len();
        let last = self.me + 1 == wakers.len();
        self.ring.holder.store(next, Ordering::SeqCst);
        if let Some(w) = &wakers[next] {
            w.wake();
        }
        drop(wakers);
        self.passes += 1;
        if self.passes < self.ring.rounds {
            return Step::Park;
        }
        if last {
            self.ring.last_pass.get_or_init(Instant::now);
            std::thread::sleep(LAST_STEP_PAUSE);
        }
        Step::Done
    }
}

/// Passes a token `rounds` times around `k` cooperative tasks on the
/// default worker count; returns the seconds from the first pass to the
/// last.
fn token_ring(k: usize, rounds: usize) -> f64 {
    let ring = Arc::new(Ring {
        holder: AtomicUsize::new(0),
        wakers: Mutex::new(vec![None; k]),
        rounds,
        first_pass: OnceLock::new(),
        last_pass: OnceLock::new(),
    });
    let tasks: Vec<Box<dyn Task>> = (0..k)
        .map(|me| {
            Box::new(RingTask {
                me,
                ring: Arc::clone(&ring),
                passes: 0,
            }) as Box<dyn Task>
        })
        .collect();
    let workers = WorkerConfig::from_env().workers.min(k);
    run_tasks(tasks, workers, |_| ());
    let first = ring.first_pass.get().expect("the ring ran");
    let last = ring.last_pass.get().expect("the ring finished");
    last.duration_since(*first).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_ring_passes_the_token_every_round() {
        for k in [1, 2, 5] {
            let secs = token_ring(k, 10);
            assert!(
                secs >= 0.0 && secs < LAST_STEP_PAUSE.as_secs_f64() * 100.0,
                "k = {k}"
            );
        }
    }
}

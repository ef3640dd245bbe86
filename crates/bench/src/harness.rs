//! A dependency-free micro-benchmark harness.
//!
//! The build image has no access to a crate registry, so the benches
//! cannot use criterion; this module provides the small slice of it
//! they need: warmup, repeated timed batches, and a median-of-batches
//! report that is robust to scheduler noise.
//!
//! Used by the `[[bench]]` targets (which set `harness = false`) via
//! `cargo bench -p mbus-bench`.

use std::time::Instant;

/// Starts a wall-clock stopwatch: the bench crate's one clock read
/// (read it back with [`Instant::elapsed`]).
#[expect(
    clippy::disallowed_methods,
    reason = "benchmarks measure wall time; their readings feed printed rows and \
              JSON artifacts, never a workload, a trace or a signature"
)]
pub fn stopwatch() -> Instant {
    Instant::now()
}

/// True when `--smoke` was passed to the bench binary (after `--` on
/// the cargo command line). Smoke mode is the CI guard against harness
/// rot: every bench still builds, runs, and prints, but with minimal
/// iteration counts, so the step finishes in seconds and the numbers
/// are meaningless.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Scales a bench's `(iters, batches)` for the current mode: unchanged
/// normally, clamped to at most 2 iterations x 1 batch under
/// [`smoke_mode`]. [`bench()`] applies this itself, so every bench —
/// including ones added later — is covered by the CI smoke step;
/// custom measurement loops outside `bench` can call it directly.
pub fn params(iters: u32, batches: u32) -> (u32, u32) {
    if smoke_mode() {
        (iters.min(2), batches.min(1))
    } else {
        (iters, batches)
    }
}

/// Runs `f` repeatedly and reports the median per-iteration time.
///
/// `f` is invoked `iters` times per batch for `batches` batches after
/// one untimed warmup batch; the printed figure is the median batch
/// divided by `iters`. Under [`smoke_mode`] the counts are clamped via
/// [`params`] before use.
pub fn bench(name: &str, iters: u32, batches: u32, f: impl FnMut()) {
    bench_timed(name, iters, batches, f);
}

/// [`bench()`], but returns the median per-iteration seconds so callers
/// can derive figures across rows (speedup ratios, JSON artifacts,
/// regression gates). Printing is identical to [`bench()`].
pub fn bench_timed(name: &str, iters: u32, batches: u32, f: impl FnMut()) -> f64 {
    let (iters, batches) = params(iters, batches);
    bench_timed_exact(name, iters, batches, f)
}

/// [`bench_timed`] without the [`params`] smoke clamp: the counts are
/// used as given. For rows whose *ratio* feeds a regression gate — a
/// 2×1 smoke sample is fine for "does it still run" but too noisy to
/// compare against a recorded baseline; such rows pick their own
/// reduced smoke counts instead.
pub fn bench_timed_exact(name: &str, iters: u32, batches: u32, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0 && batches > 0, "empty benchmark");
    for _ in 0..iters {
        f(); // warmup
    }
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = stopwatch();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!(
        "{name:<44} {:>12}  (min {} / max {})",
        format_duration(median),
        format_duration(lo),
        format_duration(hi)
    );
    median
}

/// Formats seconds as an adaptive ns/µs/ms/s figure.
pub fn format_duration(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_span_the_units() {
        assert!(format_duration(5e-9).ends_with("ns"));
        assert!(format_duration(5e-6).ends_with("µs"));
        assert!(format_duration(5e-3).ends_with("ms"));
        assert!(format_duration(5.0).ends_with('s'));
    }

    #[test]
    fn bench_runs_the_closure() {
        let mut count = 0u32;
        bench("noop", 3, 2, || count += 1);
        assert_eq!(count, 3 * 3); // warmup + 2 batches
    }

    #[test]
    fn params_pass_through_outside_smoke_mode() {
        // Cargo's test runner does not pass `--smoke`.
        assert!(!smoke_mode());
        assert_eq!(params(2_000, 5), (2_000, 5));
    }
}

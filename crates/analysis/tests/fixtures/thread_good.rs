// Fixture: fans work out through the audited sweep layer instead of
// spawning raw threads.

pub fn fan_out(jobs: Vec<Job>) -> Vec<Outcome> {
    SweepRunner::with_threads(jobs.len().min(8)).run(&jobs, |job| job.run())
}

// Fixture: fans work out through the audited shard layer instead of
// spawning raw threads.

pub fn fan_out(workload: &FleetWorkload) -> FleetReport {
    let mut sharded = ShardedFleet::new(4);
    workload.run_sharded_on(EngineKind::Analytic, &mut sharded)
}

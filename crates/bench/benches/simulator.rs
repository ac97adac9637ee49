//! Criterion benches for the discrete-event simulator: wall-clock cost
//! per simulated millisecond of PFC traffic.

use criterion::{criterion_group, criterion_main, Criterion};
use tagger_routing::Fib;
use tagger_sim::{FlowSpec, SimConfig, Simulator};
use tagger_switch::SwitchConfig;
use tagger_topo::{ClosConfig, FailureSet};

fn sim_one_ms(flows: usize) -> u64 {
    let topo = ClosConfig::small().build();
    let fib = Fib::shortest_path(&topo, &FailureSet::none());
    let cfg = SimConfig {
        switch: SwitchConfig {
            num_lossless: 1,
            ..SwitchConfig::default()
        },
        end_time_ns: 1_000_000,
        deadlock_check: false,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.clone(), fib, None, cfg);
    let hosts: Vec<_> = topo.host_ids().collect();
    for i in 0..flows {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i + hosts.len() / 2) % hosts.len()];
        sim.add_flow(FlowSpec::new(src, dst, 0));
    }
    sim.run().total_delivered_bytes()
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_1ms_clos");
    g.sample_size(10);
    for flows in [1usize, 8, 16] {
        g.bench_function(format!("{flows}_flows"), |b| b.iter(|| sim_one_ms(flows)));
    }
    g.finish();
}

fn bench_deadlock_scenario(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_scenario");
    g.sample_size(10);
    for with_tagger in [false, true] {
        let name = if with_tagger {
            "with_tagger"
        } else {
            "without_tagger"
        };
        let mut scn = tagger_scenario::parse(if with_tagger {
            include_str!("../../../examples/scenarios/fig10_tagger.scn")
        } else {
            include_str!("../../../examples/scenarios/fig10_vanilla.scn")
        })
        .expect("shipped scenario parses");
        scn.end_ns = 2_000_000;
        let opts = tagger_scenario::RunOptions::default();
        g.bench_function(name, |b| {
            b.iter(|| {
                tagger_scenario::instantiate(&scn, &Default::default(), &opts)
                    .expect("shipped scenario expands")
                    .run()
                    .0
                    .total_delivered_bytes()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_deadlock_scenario);
criterion_main!(benches);

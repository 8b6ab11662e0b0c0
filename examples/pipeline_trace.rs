//! Record a waveform of an em3d accelerator run and export it as VCD —
//! the pipeline fill/drain behaviour of §2.2 (the sequential traversal
//! running ahead through the FIFOs, workers stalling when channels drain)
//! becomes directly visible in GTKWave.
//!
//! ```text
//! cargo run --release --example pipeline_trace [out.vcd]
//! ```

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_kernels::em3d;
use cgpa_sim::{run_with_accelerator, HwConfig, HwSystem, SimMemory, Trace, TraceEvent, Value};
use std::fs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args().nth(1).unwrap_or_else(|| "target/em3d.vcd".to_string());
    let kernel = em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 2);
    let compiled = CgpaCompiler::new(CgpaConfig::default()).compile(&kernel.func, &kernel.model)?;

    let mut mem = kernel.mem.clone();
    let pm = &compiled.pipeline;
    let mut trace = None;
    let mut total_cycles = 0;
    run_with_accelerator(
        &pm.parent,
        &kernel.args,
        &mut mem,
        1_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, HwConfig::default());
            sys.enable_trace();
            let stats = sys.run(m).map_err(|e| e.to_string())?;
            total_cycles = stats.cycles;
            trace = sys.take_trace();
            Ok(sys.liveouts().to_vec())
        },
    )?;

    let trace = trace.expect("trace recorded");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&out, trace.to_vcd("em3d_acc"))?;
    println!("wrote {out} ({} events over {total_cycles} cycles)", trace.events.len());

    // Hot-state summary per worker (stage 0 = traversal, 1..=4 = update
    // workers): where do the cycles go?
    for w in 0..trace.workers.len() as u32 {
        let hist = state_dwell(&trace, w, total_cycles);
        let top: Vec<String> = hist
            .iter()
            .take(3)
            .map(|(s, d)| format!("S{s}: {d} cy ({:.0}%)", *d as f64 / total_cycles as f64 * 100.0))
            .collect();
        println!("worker {w}: {}", top.join(", "));
    }
    Ok(())
}

/// Cycles `worker` spent in each state it entered, longest first.
fn state_dwell(trace: &Trace, worker: u32, total_cycles: u64) -> Vec<(u32, u64)> {
    let entered: Vec<(u32, u64)> = trace
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::State { cycle, worker: w, state } if w == worker => Some((state, cycle)),
            _ => None,
        })
        .collect();
    let mut dwell: Vec<(u32, u64)> = Vec::new();
    for (i, &(state, since)) in entered.iter().enumerate() {
        let until = entered.get(i + 1).map_or(total_cycles, |next| next.1);
        match dwell.iter_mut().find(|(s, _)| *s == state) {
            Some(slot) => slot.1 += until.saturating_sub(since),
            None => dwell.push((state, until.saturating_sub(since))),
        }
    }
    dwell.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    dwell
}

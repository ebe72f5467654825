//! Disassemble a workload binary and annotate it with execution counts —
//! a mini objdump + profile overlay built from the public APIs.
//!
//! ```text
//! cargo run --release --example disassemble [benchmark]
//! ```

use superpin::baseline::{run_native, run_pin};
use superpin_isa::disassemble;
use superpin_tools::BblCount;
use superpin_vm::process::Process;
use superpin_workloads::{find, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".to_owned());
    let Some(spec) = find(&name) else {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(2);
    };
    let program = spec.build(Scale::Tiny);

    // Profile block executions under traditional Pin.
    let pin = run_pin(Process::load(1, &program)?, BblCount::new())?;
    let blocks = pin.tool.local_blocks();
    // Instrumentation must not change what runs.
    let native = run_native(Process::load(1, &program)?)?;
    assert_eq!(
        pin.insts, native.insts,
        "Pin must execute exactly the native instruction count"
    );

    // Print the listing from `main` on, annotating block heads with
    // their execution counts.
    let listing = disassemble(&program);
    let mut in_main = false;
    let mut printed = 0;
    for line in listing.lines() {
        if line.contains("<main>:") {
            in_main = true;
        }
        if !in_main {
            continue;
        }
        // Annotate lines whose address is a counted block head.
        let addr = u64::from_str_radix(
            line.trim_start_matches("0x")
                .split([':', ' '])
                .next()
                .unwrap_or(""),
            16,
        )
        .unwrap_or(0);
        match blocks.get(&addr) {
            Some(count) => println!("{line}    ; executed {count}x"),
            None => println!("{line}"),
        }
        printed += 1;
        if printed > 60 {
            println!("... ({} more lines)", listing.lines().count() - printed);
            break;
        }
    }

    println!(
        "\n{}: {} static instructions, {} dynamic, {} distinct blocks executed",
        spec.name,
        program.static_inst_count(),
        pin.insts,
        blocks.len()
    );
    Ok(())
}

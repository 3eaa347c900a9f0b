//! Protocol comparison on the SPLASH-2-style kernels the paper announces as
//! its next evaluation step: blocked matrix multiply, red-black SOR, LU
//! factorisation and radix sort, each run under several consistency protocols
//! on the same BIP/Myrinet cluster model.
//!
//! Run with: `cargo run --release --example splash_kernels`

use dsm_pm2::prelude::Pm2Config;
use dsm_pm2::workloads::{lu, matmul, radix, sor};

fn main() {
    let protocols = [
        "li_hudak",
        "li_hudak_fixed",
        "erc_sw",
        "hbrc_mw",
        "hlrc_notices",
    ];
    println!("SPLASH-2-style kernels, 4 nodes, BIP/Myrinet (virtual milliseconds)\n");
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "kernel", protocols[0], protocols[1], protocols[2], protocols[3], protocols[4]
    );
    // Every kernel runs on the same cluster.
    let cluster = Pm2Config::bip_myrinet(4);

    let mm = matmul::MatmulConfig {
        n: 32,
        compute_per_madd_us: 0.01,
        cluster: cluster.clone(),
    };
    let mm_oracle = matmul::sequential_checksum(mm.n);
    print!("{:<14}", "matmul 32x32");
    for proto in protocols {
        let r = matmul::run_matmul(&mm, proto);
        assert!(
            (r.checksum - mm_oracle).abs() < 1e-6,
            "{proto} diverged on matmul"
        );
        print!(" {:>13.2}", r.run.elapsed.as_micros_f64() / 1000.0);
    }
    println!();

    let sor_config = sor::SorConfig {
        size: 32,
        iterations: 4,
        omega: 1.25,
        compute_per_cell_us: 0.05,
        cluster: cluster.clone(),
    };
    let sor_oracle = sor::sequential_checksum(&sor_config);
    print!("{:<14}", "sor 32x32");
    for proto in protocols {
        let r = sor::run_sor(&sor_config, proto);
        assert!(
            (r.checksum - sor_oracle).abs() < 1e-6,
            "{proto} diverged on sor"
        );
        print!(" {:>13.2}", r.run.elapsed.as_micros_f64() / 1000.0);
    }
    println!();

    let lu_config = lu::LuConfig {
        n: 24,
        compute_per_update_us: 0.02,
        cluster: cluster.clone(),
    };
    let lu_oracle = lu::sequential_checksum(lu_config.n);
    print!("{:<14}", "lu 24x24");
    for proto in protocols {
        let r = lu::run_lu(&lu_config, proto);
        assert!(
            (r.checksum - lu_oracle).abs() < 1e-6,
            "{proto} diverged on lu"
        );
        print!(" {:>13.2}", r.run.elapsed.as_micros_f64() / 1000.0);
    }
    println!();

    let radix_config = radix::RadixConfig {
        keys: 256,
        max_key: 1 << 16,
        seed: 42,
        compute_per_key_us: 0.05,
        cluster,
    };
    let mut oracle = radix::input_keys(&radix_config);
    oracle.sort_unstable();
    print!("{:<14}", "radix 256");
    for proto in protocols {
        let r = radix::run_radix(&radix_config, proto);
        assert_eq!(r.sorted, oracle, "{proto} produced an unsorted array");
        print!(" {:>13.2}", r.run.elapsed.as_micros_f64() / 1000.0);
    }
    println!();

    println!(
        "\nEvery cell is the virtual completion time of the kernel under that protocol; \
         all runs are checked against sequential oracles."
    );
}

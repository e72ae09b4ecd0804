//! Support experiment: regenerates the fifth-order `P5(CR)` PRD fits of
//! §4.3 from the real DWT/CS codecs running on synthetic ECG.
//!
//! The paper fits its polynomials to the experimental data of \[13\]; this
//! reproduction fits them to measurements of `wbsn-dsp`. The printed
//! coefficient blocks are what ships as defaults in
//! `wbsn_model::shimmer::{dwt_prd_poly, cs_prd_poly}`.
//!
//! Run: `cargo run --release -p wbsn-bench --bin fit_prd`

use rand::rngs::StdRng;
use rand::SeedableRng;
use wbsn_bench::{header, row};
use wbsn_dsp::compress::{measure_prd, Codec, CsCodec, DwtCodec};
use wbsn_dsp::ecg::EcgGenerator;
use wbsn_model::math::{polyfit, rms_residual};

const BLOCK: usize = 256;
const SECONDS: usize = 64;

fn prd_samples(codec: &Codec, seeds: &[u64]) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let signal = EcgGenerator::default().generate(250 * SECONDS, &mut rng);
        let mut cr = 0.17;
        while cr <= 0.38 + 1e-9 {
            let mut crng = StdRng::seed_from_u64(seed ^ 0xC0DE);
            let report = measure_prd(codec, &signal, BLOCK, cr, &mut crng)
                .expect("256-sample blocks divide the signal");
            xs.push(cr);
            ys.push(report.prd);
            cr += 0.01;
        }
    }
    (xs, ys)
}

fn main() {
    println!("# P5(CR) polynomial fits (support for Fig. 4)\n");
    let seeds = [11, 23, 37];
    for (name, codec) in
        [("DWT", Codec::Dwt(DwtCodec::default())), ("CS", Codec::Cs(CsCodec::default()))]
    {
        let (xs, ys) = prd_samples(&codec, &seeds);
        let poly = polyfit(&xs, &ys, 5).expect("22 CR points x 3 seeds is plenty");
        let (offset, scale) = poly.normalization();
        println!("## {name}\n");
        println!("```rust");
        println!("Polynomial::with_normalization(");
        let coeffs: Vec<String> = poly.coeffs().iter().map(|c| format!("{c:.5}")).collect();
        println!("    vec![{}],", coeffs.join(", "));
        println!("    {offset:.3},");
        println!("    {scale:.3},");
        println!(")");
        println!("```\n");
        println!(
            "RMS residual: {:.3} PRD points over {} samples\n",
            rms_residual(&poly, &xs, &ys),
            xs.len()
        );
        header(&["CR", "measured PRD %", "fitted PRD %"]);
        let mut cr = 0.17;
        while cr <= 0.38 + 1e-9 {
            let measured: Vec<f64> = xs
                .iter()
                .zip(&ys)
                .filter(|(&x, _)| (x - cr).abs() < 1e-9)
                .map(|(_, &y)| y)
                .collect();
            let mean = measured.iter().sum::<f64>() / measured.len() as f64;
            row(&[format!("{cr:.2}"), format!("{mean:.2}"), format!("{:.2}", poly.eval(cr))]);
            cr += 0.03;
        }
        println!();
    }
}

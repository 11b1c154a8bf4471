//! `age` — command-line front end for the AGE pipeline.
//!
//! ```text
//! age generate <dataset> <out.csv> [--seed N] [--scale small|default|full]
//! age simulate <in.csv> --seq-len N --features D [--bits W] [--frac F]
//!              [--rate R] [--policy uniform|linear|deviation]
//!              [--defense standard|padded|age] [--cipher chacha|aead|aes]
//! age inspect  <in.csv> --seq-len N --features D [--bits W] [--frac F] [--rate R]
//! ```
//!
//! `generate` writes a synthetic dataset as CSV; `simulate` runs the full
//! sensor → cipher → server pipeline over a CSV of `label,v0,v1,…` rows and
//! reports reconstruction error, energy, and leakage; `inspect` prints the
//! bit-level layout of one encoded message.

use std::process::ExitCode;

use age::attack::nmi;
use age::core::{
    inspect_message, target, AgeEncoder, Batch, BatchConfig, Encoder, PaddedEncoder,
    StandardEncoder,
};
use age::crypto::{AesCbc, ChaCha20, ChaCha20Poly1305, Cipher};
use age::datasets::{read_sequences, write_sequences, Dataset, DatasetKind, Scale, Sequence};
use age::energy::{EncoderCost, EnergyModel};
use age::fixed::Format;
use age::reconstruct::{interpolate, mae};
use age::sampling::{DeviationPolicy, LinearPolicy, Policy, UniformPolicy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  age generate <dataset> <out.csv> [--seed N] [--scale small|default|full]
  age simulate <in.csv> --seq-len N --features D [--bits W] [--frac F]
               [--rate R] [--policy uniform|linear|deviation]
               [--defense standard|padded|age] [--cipher chacha|aead|aes]
  age inspect  <in.csv> --seq-len N --features D [--bits W] [--frac F] [--rate R]
datasets: activity characters eog epilepsy mnist password pavement strawberry tiselac";

/// Parsed `--key value` options.
struct Options {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Options { positional, flags })
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} got invalid value '{v}'")),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".to_string());
    };
    let opts = Options::parse(rest)?;
    match command.as_str() {
        "generate" => generate(&opts),
        "simulate" => simulate(&opts),
        "inspect" => inspect(&opts),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn dataset_kind(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::all()
        .into_iter()
        .find(|k| k.spec().name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset '{name}'"))
}

fn generate(opts: &Options) -> Result<(), String> {
    let [dataset, out_path] = opts.positional.as_slice() else {
        return Err("generate needs <dataset> <out.csv>".to_string());
    };
    let kind = dataset_kind(dataset)?;
    let seed: u64 = opts.flag_parse("seed", 2022)?;
    let scale = match opts.flag("scale").unwrap_or("default") {
        "small" => Scale::Small,
        "default" => Scale::Default,
        "full" => Scale::Full,
        other => return Err(format!("unknown scale '{other}'")),
    };
    let data = Dataset::generate(kind, scale, seed);
    let file = std::fs::File::create(out_path).map_err(|e| format!("cannot write: {e}"))?;
    write_sequences(data.sequences(), file).map_err(|e| e.to_string())?;
    let spec = data.spec();
    println!(
        "wrote {} sequences ({}x{} values, {} labels) to {out_path}",
        data.sequences().len(),
        spec.seq_len,
        spec.features,
        spec.num_labels
    );
    println!(
        "format: {} bits ({} fractional); simulate with: --seq-len {} --features {} --bits {} --frac {}",
        spec.format.width(),
        spec.format.frac(),
        spec.seq_len,
        spec.features,
        spec.format.width(),
        spec.format.frac()
    );
    Ok(())
}

/// Loads the CSV plus the batching configuration from common flags.
fn load(opts: &Options) -> Result<(Vec<Sequence>, BatchConfig), String> {
    let [in_path] = opts.positional.as_slice() else {
        return Err("need exactly one input CSV path".to_string());
    };
    let seq_len: usize = opts.flag_parse("seq-len", 0).and_then(|v| {
        if v == 0 {
            Err("--seq-len is required".into())
        } else {
            Ok(v)
        }
    })?;
    let features: usize = opts.flag_parse("features", 1)?;
    let bits: u8 = opts.flag_parse("bits", 16)?;
    let frac: i16 = opts.flag_parse("frac", 10)?;
    let format = Format::new(bits, frac).map_err(|e| e.to_string())?;
    let cfg = BatchConfig::new(seq_len, features, format).map_err(|e| e.to_string())?;
    let file = std::fs::File::open(in_path).map_err(|e| format!("cannot read: {e}"))?;
    let sequences = read_sequences(std::io::BufReader::new(file), seq_len, features)
        .map_err(|e| e.to_string())?;
    if sequences.is_empty() {
        return Err("input CSV holds no sequences".to_string());
    }
    Ok((sequences, cfg))
}

fn build_policy(opts: &Options, rate: f64, span: f64, d: usize) -> Result<Box<dyn Policy>, String> {
    Ok(match opts.flag("policy").unwrap_or("linear") {
        "uniform" => Box::new(UniformPolicy::new(rate)),
        "linear" => Box::new(LinearPolicy::new(span * (1.0 - rate) * 0.5)),
        "deviation" => Box::new(DeviationPolicy::new(span * (1.0 - rate) * 0.25 / d as f64)),
        other => return Err(format!("unknown policy '{other}'")),
    })
}

fn simulate(opts: &Options) -> Result<(), String> {
    let (sequences, cfg) = load(opts)?;
    let rate: f64 = opts.flag_parse("rate", 0.6)?;
    if !(0.0..=1.0).contains(&rate) || rate == 0.0 {
        return Err("--rate must be in (0, 1]".to_string());
    }
    let cipher: Box<dyn Cipher> = match opts.flag("cipher").unwrap_or("chacha") {
        "chacha" => Box::new(ChaCha20::new([0x42; 32])),
        "aead" => Box::new(ChaCha20Poly1305::new([0x42; 32])),
        "aes" => Box::new(AesCbc::new([0x42; 16])),
        other => return Err(format!("unknown cipher '{other}'")),
    };
    // Rough signal span for threshold heuristics.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for seq in &sequences {
        for &v in &seq.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let policy = build_policy(opts, rate, (hi - lo).max(1e-9), cfg.features())?;
    let encoder: Box<dyn Encoder> = match opts.flag("defense").unwrap_or("age") {
        "standard" => Box::new(StandardEncoder),
        "padded" => Box::new(PaddedEncoder::for_config(&cfg)),
        "age" => Box::new(AgeEncoder::new(target::age_plaintext_bytes(
            &cfg,
            rate,
            cipher.kind(),
            cipher.overhead(),
        ))),
        other => return Err(format!("unknown defense '{other}'")),
    };
    let model = EnergyModel::msp430();
    let cost_kind = if encoder.name() == "AGE" {
        EncoderCost::Age
    } else {
        EncoderCost::Standard
    };

    let d = cfg.features();
    let mut total_mae = 0.0;
    let mut total_energy = 0.0;
    let mut total_collected = 0usize;
    let mut observations = Vec::new();
    for (i, seq) in sequences.iter().enumerate() {
        let batch = Batch::gather(policy.sample(&seq.values, d), &seq.values, d)
            .map_err(|e| e.to_string())?;
        let k = batch.len();
        let plaintext = encoder.encode(&batch, &cfg).map_err(|e| e.to_string())?;
        let message = cipher.seal(i as u64, &plaintext);
        observations.push((seq.label, message.len()));
        total_energy += model.sequence_cost(k, k * d, message.len(), cost_kind).0;
        total_collected += k;

        let opened = cipher.open(&message).map_err(|e| e.to_string())?;
        let decoded = encoder.decode(&opened, &cfg).map_err(|e| e.to_string())?;
        let recon = interpolate(decoded.indices(), decoded.values(), cfg.max_len(), d);
        total_mae += mae(&recon, &seq.values);
    }

    let n = sequences.len() as f64;
    let distinct: std::collections::HashSet<usize> = observations.iter().map(|&(_, s)| s).collect();
    println!(
        "policy {} | defense {} | {} sequences",
        policy.name(),
        encoder.name(),
        sequences.len()
    );
    println!(
        "collection rate: {:.1}%  reconstruction MAE: {:.5}",
        100.0 * total_collected as f64 / (n * cfg.max_len() as f64),
        total_mae / n
    );
    println!(
        "energy: {:.2} mJ/sequence  message sizes: {} distinct  NMI(size,label): {:.3}",
        total_energy / n,
        distinct.len(),
        nmi(&observations)
    );
    if distinct.len() > 1 {
        println!("WARNING: message sizes vary — an eavesdropper can exploit them");
    }
    Ok(())
}

fn inspect(opts: &Options) -> Result<(), String> {
    let (sequences, cfg) = load(opts)?;
    let rate: f64 = opts.flag_parse("rate", 0.6)?;
    let cipher = ChaCha20::new([0x42; 32]);
    let encoder = AgeEncoder::new(target::age_plaintext_bytes(
        &cfg,
        rate,
        cipher.kind(),
        cipher.overhead(),
    ));
    let d = cfg.features();
    let policy = LinearPolicy::new(0.0); // collect everything: worst case
    let seq = &sequences[0];
    let batch =
        Batch::gather(policy.sample(&seq.values, d), &seq.values, d).map_err(|e| e.to_string())?;
    let message = encoder.encode(&batch, &cfg).map_err(|e| e.to_string())?;
    let layout = inspect_message(&message, &cfg).map_err(|e| e.to_string())?;
    println!("{layout}");
    println!(
        "data fraction {:.1}%, padding {:.2}%, effective width {:.2} bits/value",
        100.0 * layout.data_fraction(),
        100.0 * layout.padding_fraction(),
        layout.effective_width(d)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parser_handles_flags_and_positionals() {
        let opts =
            Options::parse(&strings(&["in.csv", "--rate", "0.5", "--policy", "linear"])).unwrap();
        assert_eq!(opts.positional, vec!["in.csv"]);
        assert_eq!(opts.flag("rate"), Some("0.5"));
        assert_eq!(opts.flag_parse::<f64>("rate", 0.0).unwrap(), 0.5);
        assert_eq!(opts.flag_parse::<u64>("seed", 7).unwrap(), 7);
        assert!(Options::parse(&strings(&["--dangling"])).is_err());
    }

    #[test]
    fn unknown_commands_are_rejected() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn dataset_names_resolve_case_insensitively() {
        assert!(dataset_kind("epilepsy").is_ok());
        assert!(dataset_kind("EOG").is_ok());
        assert!(dataset_kind("nonesuch").is_err());
    }

    #[test]
    fn generate_then_simulate_and_inspect() {
        let dir = std::env::temp_dir().join(format!("age_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("data.csv");
        let csv_str = csv.to_str().unwrap().to_string();

        run(&strings(&[
            "generate", "pavement", &csv_str, "--scale", "small", "--seed", "3",
        ]))
        .unwrap();
        run(&strings(&[
            "simulate",
            &csv_str,
            "--seq-len",
            "120",
            "--features",
            "1",
            "--bits",
            "16",
            "--frac",
            "10",
            "--rate",
            "0.5",
            "--defense",
            "age",
        ]))
        .unwrap();
        run(&strings(&[
            "inspect",
            &csv_str,
            "--seq-len",
            "120",
            "--features",
            "1",
            "--bits",
            "16",
            "--frac",
            "10",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_validates_inputs() {
        assert!(
            simulate(&Options::parse(&strings(&["missing.csv", "--seq-len", "10"])).unwrap())
                .is_err()
        );
        let opts = Options::parse(&strings(&["x.csv"])).unwrap();
        assert!(load(&opts).is_err(), "--seq-len is required");
    }
}

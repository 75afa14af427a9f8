//! `dpc repro`: regenerate one table or figure of the paper, or all of them
//! in the order and with the banners of `repro_output.txt`.

use super::{CliError, Job, Options, Result};
use crate::repro::{Experiment, Scale, EXPERIMENTS};

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let scale = match o.choice("scale", "paper", &["paper", "small"])? {
        "small" => &Scale::SMALL,
        _ => &Scale::PAPER,
    };
    let id = o.text("experiment");
    // `all` also prints the banners that `repro_output.txt` is split on.
    let all = id.as_deref() == Some("all");
    let chosen: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(e, _, _)| all || id.as_deref() == Some(*e))
        .collect();
    if chosen.is_empty() {
        let why = match id {
            None => " is required".to_string(),
            Some(v) => format!(": unknown experiment `{v}`"),
        };
        let ids: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(id, desc, _)| format!("  {id:<18} {desc}"))
            .collect();
        return Err(CliError(format!(
            "--experiment{why}; expected all, or one of\n{}",
            ids.join("\n")
        )));
    }
    Ok(Box::new(move || {
        let mut out = String::new();
        for (id, _, report) in chosen {
            if all {
                let banner = "=".repeat(72);
                out.push_str(&format!("{banner}\n{id}\n{banner}\n"));
            }
            out.push_str(&report(scale));
            out.push('\n');
        }
        Ok(out)
    }))
}

//! `dpc split`: the self-consistent computing/cooling split of a facility
//! budget.

use super::{CliError, Job, Options, Result};
use crate::models::units::Watts;
use crate::thermal::partition::{self_consistent_partition, uniform_rack_map};
use crate::thermal::ThermalModel;

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let total_mw = o.num("total-mw", 0.66, 0.1..10.0)?;
    Ok(Box::new(move || {
        let model = ThermalModel::paper_cluster();
        let map = uniform_rack_map(model.racks());
        let r = self_consistent_partition(
            Watts::from_megawatts(total_mw),
            &model,
            &map,
            Watts(50.0),
            500,
        )
        .map_err(|e| CliError(e.to_string()))?;
        Ok(format!(
            "total {total_mw:.2} MW -> computing {:.3} MW + cooling {:.3} MW\n\
             supply temperature {:.1}; cooling share {:.1}%; {} iterations\n",
            r.computing.megawatts(),
            r.cooling.megawatts(),
            r.t_sup,
            r.cooling_fraction() * 100.0,
            r.iterations,
        ))
    }))
}

//! A GROMACS-flavoured `.mdp` run-parameter parser.
//!
//! The paper's artifact drives GROMACS with an `.mdp`-configured water
//! case (Table 3); downstream users expect the same interface, so the
//! CLI accepts a subset of the real format: `key = value` lines, `;`
//! comments, case/dash-insensitive keys. Unknown keys are collected as
//! warnings rather than errors (as `gmx grompp` notes them).

use std::collections::BTreeMap;

use mdsim::nonbonded::Coulomb;

use crate::engine::{EngineConfig, Version};

/// Parsed run parameters.
#[derive(Debug, Clone)]
pub struct MdpOptions {
    /// Steps to run (`nsteps`).
    pub nsteps: usize,
    /// Engine configuration assembled from the recognized keys.
    pub config: EngineConfig,
    /// Keys that were not recognized (reported, not fatal).
    pub unknown: Vec<String>,
}

/// Why `.mdp` text was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdpError {
    /// Line `.0` (from 1) is not `key = value`.
    Syntax(usize, String),
    /// `key = value` does not parse as the key's type.
    BadValue(String, String),
    /// `key = value` parses, but the engine cannot run it.
    Unsupported(String, String),
    /// `rvdw` and `rcoulomb` differ; the engine has one cut-off.
    CutoffMismatch(String, String),
}

impl std::fmt::Display for MdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Syntax(line, text) => {
                write!(f, "line {line}: expected `key = value`, got `{text}`")
            }
            Self::BadValue(k, v) => write!(f, "{k}: bad value `{v}`"),
            Self::Unsupported(k, v) => write!(f, "{k}: unsupported `{v}`"),
            Self::CutoffMismatch(vdw, coul) => {
                write!(f, "rvdw = {vdw} differs from rcoulomb = {coul}")
            }
        }
    }
}

/// `value` of `key` as a `T`.
fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, MdpError> {
    value
        .parse()
        .map_err(|_| MdpError::BadValue(key.into(), value.into()))
}

/// Parse `.mdp` text into run options, starting from the paper defaults.
/// A value the engine would ignore or misread (another integrator or
/// thermostat, a non-positive or split cut-off) is refused.
pub fn parse_mdp(text: &str) -> Result<MdpOptions, MdpError> {
    let mut map = BTreeMap::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| MdpError::Syntax(ln + 1, line.into()))?;
        // GROMACS treats `-` and `_` in keys interchangeably.
        let key = key.trim().to_ascii_lowercase().replace('-', "_");
        map.insert(key, value.trim().to_string());
    }

    let mut config = EngineConfig::paper(Version::Other);
    let mut nsteps = 1000usize;
    let mut unknown = Vec::new();
    let unsupported = |key: &str, value: &str| MdpError::Unsupported(key.into(), value.into());
    for (key, value) in &map {
        match key.as_str() {
            "nsteps" => nsteps = num(key, value)?,
            "dt" => config.dt = num(key, value)?,
            "nstlist" => config.nstlist = num(key, value)?,
            "nstxout" => config.nstxout = num(key, value)?,
            "rlist" => config.rlist = num(key, value)?,
            "rcoulomb" | "rvdw" => {
                let r: f32 = num(key, value)?;
                if r <= 0.0 {
                    return Err(unsupported(key, value));
                }
                config.params.r_cut = r;
            }
            "coulombtype" => {
                config.params.coulomb = match value.to_ascii_lowercase().as_str() {
                    "pme" => Coulomb::EwaldShort { beta: 3.12 },
                    "cut-off" | "cutoff" => Coulomb::Cutoff,
                    "reaction-field" | "reaction_field" => Coulomb::ReactionField { eps_rf: 78.0 },
                    _ => return Err(unsupported(key, value)),
                }
            }
            "fourier_spacing" => {
                if num::<f32>(key, value)? <= 0.0 {
                    return Err(unsupported(key, value));
                }
            }
            "fourier_nx" | "fourier_ny" | "fourier_nz" => config.pme_grid = Some(num(key, value)?),
            "ref_t" => config.t_ref = Some(num(key, value)?),
            "tcoupl" => match value.to_ascii_lowercase().as_str() {
                "berendsen" => {}
                "no" => config.t_ref = None,
                _ => return Err(unsupported(key, value)),
            },
            "integrator" if !value.eq_ignore_ascii_case("md") => {
                return Err(unsupported(key, value))
            }
            "constraints" => {
                config.constraints = !value.eq_ignore_ascii_case("none");
            }
            "cutoff_scheme" | "ns_type" | "integrator" | "pbc" => {
                // Accepted for compatibility; our engine has one scheme.
            }
            _ => unknown.push(key.clone()),
        }
    }
    if let (Some(vdw), Some(coul)) = (map.get("rvdw"), map.get("rcoulomb")) {
        if num::<f32>("rvdw", vdw)? != num::<f32>("rcoulomb", coul)? {
            return Err(MdpError::CutoffMismatch(vdw.clone(), coul.clone()));
        }
    }
    if config.params.r_cut > config.rlist {
        config.rlist = config.params.r_cut;
    }
    Ok(MdpOptions {
        nsteps,
        config,
        unknown,
    })
}

/// The paper's Table 3 benchmark parameters as `.mdp` text.
pub const PAPER_MDP: &str = "\
; SW_GROMACS water benchmark (paper Table 3)
integrator     = md
nsteps         = 1000
dt             = 0.002
cutoff-scheme  = verlet
ns-type        = grid
nstlist        = 10
rlist          = 1.0
coulombtype    = PME
rcoulomb       = 1.0
rvdw           = 1.0
tcoupl         = berendsen
ref-t          = 300
constraints    = h-bonds
nstxout        = 100
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mdp_parses_to_table3_settings() {
        let opts = parse_mdp(PAPER_MDP).unwrap();
        assert_eq!(opts.nsteps, 1000);
        assert_eq!(opts.config.nstlist, 10);
        assert_eq!(opts.config.rlist, 1.0);
        assert_eq!(opts.config.params.r_cut, 1.0);
        assert!(matches!(
            opts.config.params.coulomb,
            Coulomb::EwaldShort { .. }
        ));
        assert_eq!(opts.config.t_ref, Some(300.0));
        assert!(opts.config.constraints);
        assert_eq!(opts.config.nstxout, 100);
        assert!(opts.unknown.is_empty(), "{:?}", opts.unknown);
    }

    #[test]
    fn comments_dashes_and_case_are_tolerated() {
        let opts = parse_mdp(
            "NSTEPS = 42 ; trailing comment\n\
             ; full-line comment\n\
             Ref-T = 310.5\n\
             COULOMBTYPE = reaction-field\n",
        )
        .unwrap();
        assert_eq!(opts.nsteps, 42);
        assert_eq!(opts.config.t_ref, Some(310.5));
        assert!(matches!(
            opts.config.params.coulomb,
            Coulomb::ReactionField { .. }
        ));
    }

    #[test]
    fn unknown_keys_are_collected_not_fatal() {
        let opts = parse_mdp("nsteps = 5\nemtol = 10\ngen-vel = yes\n").unwrap();
        assert_eq!(opts.nsteps, 5);
        assert_eq!(opts.unknown, vec!["emtol", "gen_vel"]);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse_mdp("this is not a key value line\n").is_err());
        assert!(parse_mdp("dt = banana\n").is_err());
        assert!(parse_mdp("coulombtype = magic\n").is_err());
    }

    #[test]
    fn values_the_engine_cannot_run_are_typed_errors() {
        let unsupported = |k: &str, v: &str| Err(MdpError::Unsupported(k.into(), v.into()));
        let split = MdpError::CutoffMismatch("1.0".into(), "1.2".into());
        for (text, want) in [
            ("rcoulomb = -1\n", unsupported("rcoulomb", "-1")),
            ("rvdw = 0\n", unsupported("rvdw", "0")),
            ("rvdw = 1.0\nrcoulomb = 1.2\n", Err(split)),
            ("integrator = sd\n", unsupported("integrator", "sd")),
            (
                "tcoupl = nose-hoover\n",
                unsupported("tcoupl", "nose-hoover"),
            ),
            ("coulombtype = magic\n", unsupported("coulombtype", "magic")),
            ("fourier-spacing = 0\n", unsupported("fourier_spacing", "0")),
            (
                "dt = banana\n",
                Err(MdpError::BadValue("dt".into(), "banana".into())),
            ),
            (
                "no pair here\n",
                Err(MdpError::Syntax(1, "no pair here".into())),
            ),
            ("integrator = MD\ntcoupl = Berendsen\nnsteps = 7\n", Ok(7)),
            ("tcoupl = no\nrvdw = 1.0\nrcoulomb = 1\nnsteps = 8\n", Ok(8)),
            ("emtol = 10\nnsteps = 9\n", Ok(9)),
        ] {
            assert_eq!(parse_mdp(text).map(|o| o.nsteps), want, "{text}");
        }
    }

    #[test]
    fn constraints_none_disables_shake() {
        let opts = parse_mdp("constraints = none\n").unwrap();
        assert!(!opts.config.constraints);
    }

    #[test]
    fn rcut_larger_than_rlist_bumps_rlist() {
        let opts = parse_mdp("rlist = 0.9\nrcoulomb = 1.1\n").unwrap();
        assert_eq!(opts.config.rlist, 1.1);
    }

    #[test]
    fn pme_grid_from_fourier_keys() {
        let opts = parse_mdp("fourier-nx = 64\n").unwrap();
        assert_eq!(opts.config.pme_grid, Some(64));
    }
}

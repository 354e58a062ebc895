//! The experiment implementations, one module per paper artifact.

pub mod ablation_wrappers;
pub mod coverage;
pub mod devcost;
pub mod effort;
pub mod fig1_structure;
pub mod fig2_violations;
pub mod fig3_layout;
pub mod fig4_system;
pub mod fig6_spec_change;
pub mod fig7_es_change;
pub mod platforms;
pub mod random_globals;
pub mod release_labels;
pub mod sim_throughput;

//! Table 4: DS2 convergence steps for the Nexmark queries on Flink (§5.4).
//!
//! For each query and each initial parallelism in {8, 12, 16, 20, 24, 28},
//! DS2 runs closed-loop with the §5.4 settings; the cell reports the
//! sequence of main-operator parallelism values it moved through. The paper
//! requires: at most three steps, monotone approach, identical finals
//! regardless of the starting point.

use std::collections::BTreeMap;

use ds2_core::deployment::Deployment;
use ds2_nexmark::profiles::{setup, QueryId, Target};
use ds2_simulator::engine::{EngineConfig, EngineMode, FluidEngine};

use crate::output::{render_table, write_csv};
use crate::runners::{convergence_manager_config, run_ds2};

/// The initial parallelism column of Table 4.
pub(crate) const INITIALS: [usize; 6] = [8, 12, 16, 20, 24, 28];

/// One Table 4 cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Query.
    pub query: QueryId,
    /// Initial parallelism of every operator.
    pub initial: usize,
    /// Main-operator parallelism sequence including the initial value.
    pub sequence: Vec<usize>,
    /// Final achieved/offered ratio.
    pub achieved: f64,
}

impl Cell {
    /// Number of scaling steps (sequence transitions).
    pub fn steps(&self) -> usize {
        self.sequence.len().saturating_sub(1)
    }

    /// Final main-operator parallelism.
    pub(crate) fn final_parallelism(&self) -> usize {
        *self.sequence.last().expect("non-empty")
    }

    /// Renders like the paper: `12→16`.
    pub fn render(&self) -> String {
        if self.sequence.len() == 1 {
            format!("{} (stable)", self.sequence[0])
        } else {
            self.sequence[1..]
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("->")
        }
    }
}

/// Builds the Flink-personality engine for one query at uniform initial
/// parallelism.
pub(crate) fn query_engine(
    query: QueryId,
    initial: usize,
) -> (FluidEngine, ds2_core::graph::OperatorId) {
    let s = setup(query, Target::Flink);
    let deployment = Deployment::uniform(&s.graph, initial);
    let cfg = EngineConfig {
        mode: EngineMode::Flink,
        tick_ns: 25_000_000,
        per_instance_queue: 20_000.0,
        reconfig_latency_ns: 30_000_000_000,
        ..Default::default()
    };
    (
        FluidEngine::new(s.graph, s.profiles, s.sources, deployment, cfg),
        s.main_operator,
    )
}

/// Runs one Table 4 cell.
pub fn run_cell(query: QueryId, initial: usize, duration_ns: u64) -> Cell {
    let (engine, main) = query_engine(query, initial);
    let result = run_ds2(engine, convergence_manager_config(), duration_ns);
    let sequence = result.parallelism_steps(main, initial);
    Cell {
        query,
        initial,
        sequence,
        achieved: result.final_achieved_ratio(30),
    }
}

/// Runs the full table (36 experiments).
pub(crate) fn run_table(duration_ns: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for q in QueryId::ALL {
        for &init in &INITIALS {
            cells.push(run_cell(q, init, duration_ns));
        }
    }
    cells
}

/// Renders the table plus the §5.4 summary statistics.
pub fn report(cells: &[Cell]) -> String {
    let mut by_init: BTreeMap<usize, Vec<&Cell>> = BTreeMap::new();
    for c in cells {
        by_init.entry(c.initial).or_default().push(c);
    }
    let mut rows = Vec::new();
    for (&init, row_cells) in &by_init {
        let mut row = vec![init.to_string()];
        for q in QueryId::ALL {
            let cell = row_cells
                .iter()
                .find(|c| c.query == q)
                .map(|c| c.render())
                .unwrap_or_default();
            row.push(cell);
        }
        rows.push(row);
    }
    let table = render_table(&["initial", "Q1", "Q2", "Q3", "Q5", "Q8", "Q11"], &rows);

    let csv_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.query.name().to_string(),
                c.initial.to_string(),
                c.sequence
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(";"),
                c.steps().to_string(),
                format!("{:.3}", c.achieved),
            ]
        })
        .collect();
    let _ = write_csv(
        "table4_convergence.csv",
        &["query", "initial", "sequence", "steps", "achieved"],
        &csv_rows,
    );

    let max_steps = cells.iter().map(Cell::steps).max().unwrap_or(0);
    let one = cells.iter().filter(|c| c.steps() <= 1).count();
    let two = cells.iter().filter(|c| c.steps() == 2).count();
    let three = cells.iter().filter(|c| c.steps() == 3).count();
    let expected: Vec<String> = QueryId::ALL
        .iter()
        .map(|&q| {
            let finals: Vec<usize> = cells
                .iter()
                .filter(|c| c.query == q)
                .map(Cell::final_parallelism)
                .collect();
            let consistent = finals.windows(2).all(|w| w[0] == w[1]);
            format!(
                "{}: final {} ({}; paper {})",
                q.name(),
                finals.first().copied().unwrap_or(0),
                if consistent {
                    "start-independent"
                } else {
                    "START-DEPENDENT!"
                },
                q.reference_parallelism()
            )
        })
        .collect();
    format!(
        "Table 4 — DS2 convergence steps (Nexmark on Flink)\n{table}\n\
         max steps: {max_steps} (paper: 3)   1-step: {one}   2-step: {two}   3-step: {three} of {} runs\n\
         finals: {}\n",
        cells.len(),
        expected.join("; "),
    )
}

//! The cell engine: storage, dependency graph, compiled incremental
//! recompute.
//!
//! Recalculation is the compiled-recalc design: every formula is lowered
//! once to a stack-bytecode [`Program`] (cached per cell, invalidated on
//! formula edits), and the dependency graph is leveled into a
//! [`CalcGraph`] — topological *levels* rebuilt only on structural edits.
//! An edit marks the edited cell's dependents dirty and walks the levels
//! in order on the calling thread. A recomputed cell whose value is
//! bit-equal to its previous value stops propagation to its dependents
//! (**value cutoff**).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::compile::{compile, Program, Vm};
use crate::{parse, SheetError};

/// What a cell holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellContent {
    /// A literal number (an input cell).
    Number(f64),
    /// A derived cell. Only the source text is stored; the sheet keeps
    /// the compiled program alongside and recompiles it on load.
    Formula {
        /// The formula source text.
        source_text: String,
    },
}

/// Counters from the most recent recompute wave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Formula cells whose compiled programs ran.
    pub evaluated: u64,
    /// Cells whose new value was bit-equal to the old one, so propagation
    /// to their dependents stopped there (value cutoff). A literal edit
    /// that doesn't change the stored bits counts as one cut.
    pub cut: u64,
    /// Topological levels the wave touched.
    pub levels: usize,
}

/// A compiled formula node: its program plus the slot→cell-id mapping.
#[derive(Debug, Clone)]
struct Node {
    program: Arc<Program>,
    /// Cell ids aligned with [`Program::cells`] slots.
    deps: Vec<usize>,
}

/// The leveled calculation graph: cells interned to dense ids, formulas
/// compiled, and the DAG stratified into topological levels (a cell's
/// level is one more than the highest level among its formula
/// dependencies; literal-only formulas are level 0). Rebuilt only on
/// structural edits; value edits reuse it unchanged.
#[derive(Debug, Clone)]
struct CalcGraph {
    /// id → name, in sorted-name order (deterministic ids).
    names: Vec<String>,
    ids: BTreeMap<String, usize>,
    /// id → current value (mirror of the sheet's value map).
    values: Vec<f64>,
    /// id → compiled node (`None` for literals).
    nodes: Vec<Option<Node>>,
    /// id → dependent formula ids, ascending.
    dependents: Vec<Vec<usize>>,
    /// id → topological level (`usize::MAX` for literals).
    level_of: Vec<usize>,
    /// Formula ids per level, ascending within each level.
    levels: Vec<Vec<usize>>,
}

impl CalcGraph {
    /// Builds the graph from the sheet's maps. `programs` must contain a
    /// compiled program for every formula cell.
    fn build(
        cells: &BTreeMap<String, CellContent>,
        values: &BTreeMap<String, f64>,
        programs: &BTreeMap<String, Arc<Program>>,
    ) -> Result<Self, SheetError> {
        let names: Vec<String> = cells.keys().cloned().collect();
        let ids: BTreeMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let n = names.len();
        let mut graph_values = Vec::with_capacity(n);
        let mut nodes: Vec<Option<Node>> = Vec::with_capacity(n);
        for name in &names {
            graph_values.push(values.get(name).copied().unwrap_or(f64::NAN));
            match cells.get(name) {
                Some(CellContent::Formula { .. }) => {
                    let program = Arc::clone(
                        programs
                            .get(name)
                            .expect("every formula cell has a compiled program"),
                    );
                    let deps: Vec<usize> = program
                        .cells()
                        .iter()
                        .map(|dep| {
                            ids.get(dep)
                                .copied()
                                .ok_or_else(|| SheetError::unknown_cell(dep))
                        })
                        .collect::<Result<_, _>>()?;
                    nodes.push(Some(Node { program, deps }));
                }
                _ => nodes.push(None),
            }
        }

        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, node) in nodes.iter().enumerate() {
            if let Some(node) = node {
                for &dep in &node.deps {
                    dependents[dep].push(id);
                }
            }
        }
        for list in &mut dependents {
            list.sort_unstable();
        }

        // Kahn leveling over formula cells: a formula's indegree counts
        // only formula dependencies (literals are always ready).
        let mut indegree = vec![0usize; n];
        let mut formula_count = 0usize;
        for node in nodes.iter().flatten() {
            formula_count += 1;
            let _ = node;
        }
        for (id, node) in nodes.iter().enumerate() {
            if let Some(node) = node {
                indegree[id] = node
                    .deps
                    .iter()
                    .filter(|&&dep| nodes[dep].is_some())
                    .count();
            }
        }
        let mut level_of = vec![usize::MAX; n];
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut frontier: Vec<usize> = (0..n)
            .filter(|&id| nodes[id].is_some() && indegree[id] == 0)
            .collect();
        let mut leveled = 0usize;
        while !frontier.is_empty() {
            frontier.sort_unstable();
            let level = levels.len();
            let mut next = Vec::new();
            for &id in &frontier {
                level_of[id] = level;
                leveled += 1;
                for &dependent in &dependents[id] {
                    indegree[dependent] -= 1;
                    if indegree[dependent] == 0 {
                        next.push(dependent);
                    }
                }
            }
            levels.push(std::mem::take(&mut frontier));
            frontier = next;
        }
        if leveled != formula_count {
            // Unreachable through the public API (edits reject cycles);
            // kept as a defensive check rather than a panic.
            let stuck = (0..n)
                .find(|&id| nodes[id].is_some() && level_of[id] == usize::MAX)
                .expect("an unleveled formula cell exists");
            return Err(SheetError::cycle(&names[stuck]));
        }
        Ok(Self {
            names,
            ids,
            values: graph_values,
            nodes,
            dependents,
            level_of,
            levels,
        })
    }
}

/// The dynamic spreadsheet: named cells, formulas, compiled incremental
/// recompute.
///
/// Editing a cell re-evaluates at most its transitive dependents, level by
/// level, and stops early wherever a recomputed value is bit-equal to the
/// old one (value cutoff); [`Sheet::evaluation_count`] exposes how many
/// formula evaluations have run, so the incrementality is testable (and is
/// measured by the EXP-SHEET experiment).
///
/// ```
/// use monityre_sheet::Sheet;
///
/// # fn main() -> Result<(), monityre_sheet::SheetError> {
/// let mut sheet = Sheet::new();
/// sheet.set_number("round_ms", 114.0)?;
/// sheet.set_number("dsp.active_uw", 620.0)?;
/// sheet.set_formula("dsp.energy_uj", "dsp.active_uw * 5.0 / 1000.0")?;
/// sheet.set_formula("budget_uj", "dsp.energy_uj + 2.0")?;
/// assert!((sheet.value("budget_uj")? - 5.1).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sheet {
    cells: BTreeMap<String, CellContent>,
    values: BTreeMap<String, f64>,
    /// Reverse dependency edges: cell → cells whose formulas reference it.
    dependents: BTreeMap<String, BTreeSet<String>>,
    /// Compiled-program cache, keyed by cell; an entry is dropped when its
    /// cell's formula is edited or removed and survives graph rebuilds.
    programs: BTreeMap<String, Arc<Program>>,
    /// The leveled graph; `None` after a structural edit until the next
    /// recompute needs it.
    graph: Option<CalcGraph>,
    evaluations: u64,
    cuts: u64,
    last: RecomputeStats,
}

impl Sheet {
    /// Creates an empty sheet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sheet has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether a cell exists.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.cells.contains_key(name)
    }

    /// Iterates over cell names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.cells.keys().map(String::as_str)
    }

    /// The content of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`SheetError::UnknownCell`] when absent.
    pub fn content(&self, name: &str) -> Result<&CellContent, SheetError> {
        self.cells
            .get(name)
            .ok_or_else(|| SheetError::unknown_cell(name))
    }

    /// The current value of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`SheetError::UnknownCell`] when absent.
    pub fn value(&self, name: &str) -> Result<f64, SheetError> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| SheetError::unknown_cell(name))
    }

    /// Total formula evaluations performed so far (for incrementality
    /// measurements).
    #[must_use]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations
    }

    /// Total cells cut so far: recomputes (or literal edits) whose result
    /// was bit-equal to the stored value, stopping propagation.
    #[must_use]
    pub fn cutoff_count(&self) -> u64 {
        self.cuts
    }

    /// Counters from the most recent edit's recompute wave.
    #[must_use]
    pub fn last_recompute(&self) -> RecomputeStats {
        self.last
    }

    /// Forces compilation: lowers any uncompiled formulas to bytecode and
    /// rebuilds the leveled graph if a structural edit invalidated it.
    /// Recompute paths do this lazily; benchmarks call it to take graph
    /// construction out of the timed region.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from formulas that must be recompiled from
    /// their source text.
    pub fn compile(&mut self) -> Result<(), SheetError> {
        self.ensure_graph()
    }

    /// The width of each topological level of the compiled graph (compiling
    /// it first if needed). Level `i + 1` cells depend on level `≤ i`
    /// results; cells within one level are independent.
    ///
    /// # Errors
    ///
    /// Propagates [`Sheet::compile`] errors.
    pub fn level_widths(&mut self) -> Result<Vec<usize>, SheetError> {
        self.ensure_graph()?;
        Ok(self
            .graph
            .as_ref()
            .map(|g| g.levels.iter().map(Vec::len).collect())
            .unwrap_or_default())
    }

    /// Sets (or overwrites) a literal number cell and recomputes its
    /// dependents. Writing a bit-identical value is a no-op: the cutoff
    /// applies at the source, and no dependent is re-evaluated.
    ///
    /// # Errors
    ///
    /// Returns [`SheetError::InvalidName`] for malformed names or
    /// [`SheetError::NonFinite`] for non-finite inputs.
    pub fn set_number(&mut self, name: &str, value: f64) -> Result<(), SheetError> {
        validate_name(name)?;
        if !value.is_finite() {
            return Err(SheetError::non_finite(name));
        }
        if let Some(CellContent::Number(old)) = self.cells.get(name) {
            // Value-only edit: the graph structure is untouched.
            if old.to_bits() == value.to_bits() {
                self.cuts += 1;
                self.last = RecomputeStats {
                    evaluated: 0,
                    cut: 1,
                    levels: 0,
                };
                return Ok(());
            }
            self.cells
                .insert(name.to_owned(), CellContent::Number(value));
            self.values.insert(name.to_owned(), value);
            if let Some(graph) = self.graph.as_mut() {
                let id = graph.ids[name];
                graph.values[id] = value;
            }
            return self.recompute_from(name);
        }
        // New cell, or a formula overwritten by a literal: structural.
        self.unlink(name);
        self.programs.remove(name);
        self.graph = None;
        self.cells
            .insert(name.to_owned(), CellContent::Number(value));
        self.values.insert(name.to_owned(), value);
        self.recompute_from(name)
    }

    /// Sets (or overwrites) a formula cell and recomputes it plus its
    /// dependents. The formula is compiled to bytecode; the cell's cached
    /// program is invalidated and the graph's levels are rebuilt (lazily)
    /// because the edit is structural.
    ///
    /// # Errors
    ///
    /// * [`SheetError::Parse`] — the formula does not parse;
    /// * [`SheetError::UnknownCell`] — a referenced cell does not exist
    ///   yet (build sheets bottom-up);
    /// * [`SheetError::Cycle`] — the formula would (transitively) depend
    ///   on itself;
    /// * [`SheetError::NonFinite`] — the formula evaluates to NaN/∞.
    ///
    /// On error the sheet is left unchanged.
    pub fn set_formula(&mut self, name: &str, source_text: &str) -> Result<(), SheetError> {
        validate_name(name)?;
        let expr = parse(source_text)?;
        let deps = expr.dependencies();
        for dep in &deps {
            if !self.cells.contains_key(dep) {
                return Err(SheetError::unknown_cell(dep));
            }
        }
        // Cycle check: would `name` be reachable from any dep through the
        // *current* forward-dependency edges (plus the new edge set)? A
        // brand-new cell cannot be referenced by any existing formula, so
        // only redefinitions pay for the traversal (keeps bottom-up bulk
        // builds linear).
        if deps.contains(name)
            || (self.cells.contains_key(name) && deps.iter().any(|d| self.reaches(d, name)))
        {
            return Err(SheetError::cycle(name));
        }
        // Trial evaluation on the VM before mutating anything.
        let program = compile(&expr);
        self.evaluations += 1;
        let value = Vm::new().run(&program, |slot| self.values[&program.cells()[slot]]);
        if !value.is_finite() {
            return Err(SheetError::non_finite(name));
        }

        self.unlink(name);
        for dep in &deps {
            self.dependents
                .entry(dep.clone())
                .or_default()
                .insert(name.to_owned());
        }
        self.programs.insert(name.to_owned(), Arc::new(program));
        self.graph = None;
        self.cells.insert(
            name.to_owned(),
            CellContent::Formula {
                source_text: source_text.to_owned(),
            },
        );
        self.values.insert(name.to_owned(), value);
        self.recompute_from(name)
    }

    /// Removes a cell.
    ///
    /// # Errors
    ///
    /// Returns [`SheetError::Cycle`] — reported as a dependency conflict —
    /// when other formulas still reference the cell, or
    /// [`SheetError::UnknownCell`] when absent.
    pub fn remove(&mut self, name: &str) -> Result<(), SheetError> {
        if !self.cells.contains_key(name) {
            return Err(SheetError::unknown_cell(name));
        }
        if self.dependents.get(name).is_some_and(|d| !d.is_empty()) {
            return Err(SheetError::cycle(name));
        }
        self.unlink(name);
        self.cells.remove(name);
        self.values.remove(name);
        self.dependents.remove(name);
        self.programs.remove(name);
        self.graph = None;
        Ok(())
    }

    /// Forward dependencies of a cell (empty for literals).
    #[must_use]
    pub fn dependencies_of(&self, name: &str) -> BTreeSet<String> {
        self.programs
            .get(name)
            .map(|program| program.cells().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Cells whose formulas reference `name`, directly.
    #[must_use]
    pub fn dependents_of(&self, name: &str) -> BTreeSet<String> {
        self.dependents.get(name).cloned().unwrap_or_default()
    }

    /// Renders a cell's dependency tree with current values — the
    /// "where does this number come from?" view an engineer expects from
    /// the spreadsheet.
    ///
    /// ```text
    /// acq.total_uw = adc.active_uw + afe.active_uw  [290]
    /// ├─ adc.active_uw  [210]
    /// └─ afe.active_uw  [80]
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SheetError::UnknownCell`] when absent.
    pub fn explain(&self, name: &str) -> Result<String, SheetError> {
        if !self.cells.contains_key(name) {
            return Err(SheetError::unknown_cell(name));
        }
        // Iterative pre-order walk (an explicit stack instead of
        // recursion, so arbitrarily deep chains cannot overflow the call
        // stack).
        let mut out = String::new();
        let mut stack: Vec<(String, String, bool, bool)> =
            vec![(name.to_owned(), String::new(), true, true)];
        while let Some((name, prefix, is_last, is_root)) = stack.pop() {
            let value = self.values.get(&name).copied().unwrap_or(f64::NAN);
            let header = match self.cells.get(&name) {
                Some(CellContent::Formula { source_text, .. }) => {
                    format!("{name} = {source_text}  [{value}]")
                }
                _ => format!("{name}  [{value}]"),
            };
            if is_root {
                out.push_str(&header);
            } else {
                out.push_str(&prefix);
                out.push_str(if is_last { "└─ " } else { "├─ " });
                out.push_str(&header);
            }
            out.push('\n');
            let deps: Vec<String> = self.dependencies_of(&name).into_iter().collect();
            let child_prefix = if is_root {
                String::new()
            } else {
                format!("{prefix}{}", if is_last { "   " } else { "│  " })
            };
            for (i, dep) in deps.iter().enumerate().rev() {
                stack.push((
                    dep.clone(),
                    child_prefix.clone(),
                    i == deps.len() - 1,
                    false,
                ));
            }
        }
        Ok(out)
    }

    /// Re-evaluates every formula cell from scratch, level by level (used
    /// after deserialization, by the EXP-SHEET full-rebuild benchmark, and
    /// by tests as the ground truth the incremental path must match). No
    /// cutoff applies: every formula runs exactly once.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn recompute_all(&mut self) -> Result<(), SheetError> {
        self.ensure_graph()?;
        let Some(mut graph) = self.graph.take() else {
            return Ok(());
        };
        let result = self.wave(&mut graph, None);
        self.graph = Some(graph);
        let stats = result?;
        self.last = stats;
        Ok(())
    }

    /// Serializes the sheet (cell contents only; values are derived).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` errors.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Restores a sheet serialized with [`Sheet::to_json`], re-parsing and
    /// recompiling formulas and recomputing all values bottom-up.
    ///
    /// # Errors
    ///
    /// Returns a boxed error on malformed JSON, unparsable formulas, or
    /// inconsistent references.
    pub fn from_json(json: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_str(json)?)
    }

    // -- internals --------------------------------------------------------

    /// Rebuilds a sheet from bare cell contents: literals first, then
    /// formulas in dependency order (a single Kahn pass over the parsed
    /// dependency sets — no quadratic retry). Every formula is re-parsed,
    /// recompiled, and re-evaluated, so loaded values are always fresh.
    fn from_cells(cells: BTreeMap<String, CellContent>) -> Result<Self, SheetError> {
        let mut sheet = Sheet::new();
        let mut formulas: BTreeMap<String, (String, BTreeSet<String>)> = BTreeMap::new();
        for (name, content) in cells {
            match content {
                CellContent::Number(v) => sheet.set_number(&name, v)?,
                CellContent::Formula { source_text, .. } => {
                    let deps = parse(&source_text)?.dependencies();
                    formulas.insert(name, (source_text, deps));
                }
            }
        }
        // Kahn over the pending formulas: a formula is ready when all its
        // formula-dependencies are inserted (literal deps already are).
        let mut pending_deps: BTreeMap<String, usize> = BTreeMap::new();
        let mut waiters: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, (_, deps)) in &formulas {
            let mut count = 0usize;
            for dep in deps {
                if formulas.contains_key(dep) {
                    count += 1;
                    waiters.entry(dep.clone()).or_default().push(name.clone());
                } else if !sheet.contains(dep) {
                    return Err(SheetError::unknown_cell(dep));
                }
            }
            pending_deps.insert(name.clone(), count);
        }
        let mut ready: Vec<String> = pending_deps
            .iter()
            .filter(|(_, &count)| count == 0)
            .map(|(name, _)| name.clone())
            .collect();
        let mut inserted = 0usize;
        while let Some(name) = ready.pop() {
            let (source_text, _) = &formulas[&name];
            sheet.set_formula(&name, source_text)?;
            inserted += 1;
            if let Some(dependents) = waiters.get(&name) {
                for dependent in dependents {
                    let count = pending_deps
                        .get_mut(dependent)
                        .expect("waiter is a pending formula");
                    *count -= 1;
                    if *count == 0 {
                        ready.push(dependent.clone());
                    }
                }
            }
        }
        if inserted != formulas.len() {
            let stuck = pending_deps
                .iter()
                .find(|(_, &count)| count > 0)
                .map(|(name, _)| name.clone())
                .expect("a stalled formula exists");
            return Err(SheetError::cycle(&stuck));
        }
        Ok(sheet)
    }

    /// Removes `name`'s outgoing dependency edges (before re-definition).
    fn unlink(&mut self, name: &str) {
        let old_deps = self.dependencies_of(name);
        for dep in old_deps {
            if let Some(set) = self.dependents.get_mut(&dep) {
                set.remove(name);
            }
        }
    }

    /// Whether `to` is reachable from `from` along forward dependency
    /// edges (i.e. `from`'s formula transitively references `to`).
    fn reaches(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        let mut stack: Vec<String> = self.dependencies_of(from).into_iter().collect();
        let mut seen = BTreeSet::new();
        while let Some(current) = stack.pop() {
            if current == to {
                return true;
            }
            if seen.insert(current.clone()) {
                stack.extend(self.dependencies_of(&current));
            }
        }
        false
    }

    /// Compiles missing programs and rebuilds the leveled graph if a
    /// structural edit invalidated it.
    fn ensure_graph(&mut self) -> Result<(), SheetError> {
        if self.graph.is_some() {
            return Ok(());
        }
        for (name, content) in &self.cells {
            if let CellContent::Formula { source_text } = content {
                if !self.programs.contains_key(name) {
                    let program = compile(&parse(source_text)?);
                    self.programs.insert(name.clone(), Arc::new(program));
                }
            }
        }
        self.graph = Some(CalcGraph::build(&self.cells, &self.values, &self.programs)?);
        Ok(())
    }

    /// Recomputes the transitive dependents of `name` level by level with
    /// value cutoff.
    fn recompute_from(&mut self, name: &str) -> Result<(), SheetError> {
        if self.dependents.get(name).is_none_or(BTreeSet::is_empty) {
            self.last = RecomputeStats::default();
            return Ok(());
        }
        self.ensure_graph()?;
        let Some(mut graph) = self.graph.take() else {
            return Ok(());
        };
        let seed = graph.ids[name];
        let result = self.wave(&mut graph, Some(seed));
        self.graph = Some(graph);
        let stats = result?;
        self.last = stats;
        Ok(())
    }

    /// One recompute wave over the leveled graph. With a seed, only the
    /// seed's transitive dependents are dirty and value cutoff prunes the
    /// frontier; with `None` every formula cell recomputes (full rebuild,
    /// no cutoff). One [`Vm`] runs every cell of every level in turn.
    fn wave(
        &mut self,
        graph: &mut CalcGraph,
        seed: Option<usize>,
    ) -> Result<RecomputeStats, SheetError> {
        let full = seed.is_none();
        let n = graph.names.len();
        let mut stats = RecomputeStats::default();
        let mut dirty = vec![false; n];
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); graph.levels.len()];
        match seed {
            Some(seed) => {
                for &dependent in &graph.dependents[seed] {
                    dirty[dependent] = true;
                    buckets[graph.level_of[dependent]].push(dependent);
                }
            }
            None => {
                for (level, cells) in graph.levels.iter().enumerate() {
                    buckets[level] = cells.clone();
                }
            }
        }
        let mut vm = Vm::new();
        for level in 0..buckets.len() {
            let mut tasks = std::mem::take(&mut buckets[level]);
            if tasks.is_empty() {
                continue;
            }
            tasks.sort_unstable();
            stats.levels += 1;
            self.evaluations += tasks.len() as u64;
            stats.evaluated += tasks.len() as u64;
            // Cells within a level never read each other, so writing a
            // result back before its neighbours run changes nothing.
            for &cell in &tasks {
                let node = graph.nodes[cell]
                    .as_ref()
                    .expect("level cells are formula cells");
                let value = vm.run(&node.program, |slot| graph.values[node.deps[slot]]);
                if !value.is_finite() {
                    return Err(SheetError::non_finite(&graph.names[cell]));
                }
                let changed = value.to_bits() != graph.values[cell].to_bits();
                if changed {
                    graph.values[cell] = value;
                    self.values.insert(graph.names[cell].clone(), value);
                }
                if full {
                    continue;
                }
                if changed {
                    for &dependent in &graph.dependents[cell] {
                        if !dirty[dependent] {
                            dirty[dependent] = true;
                            buckets[graph.level_of[dependent]].push(dependent);
                        }
                    }
                } else {
                    stats.cut += 1;
                    self.cuts += 1;
                }
            }
        }
        Ok(stats)
    }
}

impl Serialize for Sheet {
    fn to_value(&self) -> Value {
        self.cells.to_value()
    }
    fn write_json(&self, out: &mut String) {
        self.cells.write_json(out);
    }
}

impl Deserialize for Sheet {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let cells = BTreeMap::<String, CellContent>::from_value(value)?;
        Sheet::from_cells(cells).map_err(serde::Error::custom)
    }
}

fn validate_name(name: &str) -> Result<(), SheetError> {
    let mut chars = name.chars();
    let valid = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        }
        _ => false,
    };
    if valid {
        Ok(())
    } else {
        Err(SheetError::invalid_name(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_sheet() -> Sheet {
        let mut s = Sheet::new();
        s.set_number("a", 1.0).unwrap();
        s.set_formula("b", "a * 2").unwrap();
        s.set_formula("c", "b + 1").unwrap();
        s.set_formula("d", "c * c").unwrap();
        s
    }

    #[test]
    fn literal_and_formula_values() {
        let s = chain_sheet();
        assert_eq!(s.value("a").unwrap(), 1.0);
        assert_eq!(s.value("b").unwrap(), 2.0);
        assert_eq!(s.value("c").unwrap(), 3.0);
        assert_eq!(s.value("d").unwrap(), 9.0);
    }

    #[test]
    fn edit_propagates_through_chain() {
        let mut s = chain_sheet();
        s.set_number("a", 5.0).unwrap();
        assert_eq!(s.value("b").unwrap(), 10.0);
        assert_eq!(s.value("c").unwrap(), 11.0);
        assert_eq!(s.value("d").unwrap(), 121.0);
    }

    #[test]
    fn recompute_is_incremental() {
        let mut s = chain_sheet();
        s.set_number("x", 100.0).unwrap(); // unrelated cell
        let before = s.evaluation_count();
        s.set_number("x", 200.0).unwrap(); // no dependents
        assert_eq!(s.evaluation_count(), before);
        s.set_number("a", 2.0).unwrap(); // three dependents
        assert_eq!(s.evaluation_count(), before + 3);
    }

    #[test]
    fn diamond_dependencies_evaluate_once_in_order() {
        let mut s = Sheet::new();
        s.set_number("x", 1.0).unwrap();
        s.set_formula("left", "x + 1").unwrap();
        s.set_formula("right", "x * 10").unwrap();
        s.set_formula("join", "left + right").unwrap();
        let base = s.evaluation_count();
        s.set_number("x", 2.0).unwrap();
        // Exactly three re-evaluations: left, right, join — join once.
        assert_eq!(s.evaluation_count(), base + 3);
        assert_eq!(s.value("join").unwrap(), 23.0);
    }

    #[test]
    fn noop_edit_cuts_at_the_source() {
        let mut s = chain_sheet();
        let evals = s.evaluation_count();
        let cuts = s.cutoff_count();
        s.set_number("a", 1.0).unwrap(); // bit-identical rewrite
        assert_eq!(s.evaluation_count(), evals, "no dependent re-evaluated");
        assert_eq!(s.cutoff_count(), cuts + 1);
        assert_eq!(
            s.last_recompute(),
            RecomputeStats {
                evaluated: 0,
                cut: 1,
                levels: 0
            }
        );
        assert_eq!(s.value("d").unwrap(), 9.0);
    }

    #[test]
    fn value_cutoff_stops_propagation_mid_graph() {
        let mut s = Sheet::new();
        s.set_number("x", 5.0).unwrap();
        s.set_formula("sat", "clamp(x, 0, 1)").unwrap(); // saturates at 1
        s.set_formula("down", "sat * 100").unwrap();
        s.set_formula("deeper", "down + 1").unwrap();
        let evals = s.evaluation_count();
        s.set_number("x", 7.0).unwrap(); // sat recomputes to 1 again
                                         // Only `sat` ran; `down` and `deeper` were cut off.
        assert_eq!(s.evaluation_count(), evals + 1);
        assert_eq!(s.last_recompute().cut, 1);
        assert_eq!(s.value("deeper").unwrap(), 101.0);
    }

    #[test]
    fn cycle_rejected_directly_and_transitively() {
        let mut s = chain_sheet();
        assert!(matches!(
            s.set_formula("a", "d + 1"),
            Err(SheetError::Cycle { .. })
        ));
        // Self reference.
        assert!(matches!(
            s.set_formula("e", "e + 1"),
            Err(SheetError::UnknownCell { .. }) | Err(SheetError::Cycle { .. })
        ));
        // Sheet unchanged after the rejected edit.
        assert_eq!(s.value("a").unwrap(), 1.0);
    }

    #[test]
    fn redefining_formula_updates_edges() {
        let mut s = chain_sheet();
        s.set_formula("d", "a + 100").unwrap(); // d no longer depends on c
        s.set_number("a", 2.0).unwrap();
        assert_eq!(s.value("d").unwrap(), 102.0);
        // c no longer feeds d.
        assert!(!s.dependents_of("c").contains("d"));
    }

    #[test]
    fn formula_referencing_missing_cell_fails_cleanly() {
        let mut s = Sheet::new();
        let err = s.set_formula("y", "ghost * 2").unwrap_err();
        assert!(matches!(err, SheetError::UnknownCell { .. }));
        assert!(!s.contains("y"));
    }

    #[test]
    fn overwriting_formula_with_literal_freezes_value() {
        let mut s = chain_sheet();
        s.set_number("c", 42.0).unwrap();
        assert_eq!(s.value("d").unwrap(), 42.0 * 42.0);
        s.set_number("a", 7.0).unwrap();
        // b still recomputes, c is frozen.
        assert_eq!(s.value("b").unwrap(), 14.0);
        assert_eq!(s.value("c").unwrap(), 42.0);
    }

    #[test]
    fn remove_protects_referenced_cells() {
        let mut s = chain_sheet();
        assert!(s.remove("a").is_err());
        s.remove("d").unwrap();
        assert!(!s.contains("d"));
        // Now c has no dependents and can go.
        s.remove("c").unwrap();
    }

    #[test]
    fn non_finite_results_rejected() {
        let mut s = Sheet::new();
        s.set_number("zero", 0.0).unwrap();
        let err = s.set_formula("boom", "1 / zero").unwrap_err();
        assert!(matches!(err, SheetError::NonFinite { .. }));
        assert!(!s.contains("boom"));
        assert!(s.set_number("nan_in", f64::NAN).is_err());
    }

    #[test]
    fn non_finite_mid_wave_is_reported() {
        let mut s = Sheet::new();
        s.set_number("x", 1.0).unwrap();
        s.set_formula("inv", "1 / x").unwrap();
        let err = s.set_number("x", 0.0).unwrap_err();
        assert!(matches!(err, SheetError::NonFinite { .. }));
        // Later edits still work: the engine state stays consistent.
        s.set_number("x", 4.0).unwrap();
        assert_eq!(s.value("inv").unwrap(), 0.25);
    }

    #[test]
    fn invalid_names_rejected() {
        let mut s = Sheet::new();
        assert!(s.set_number("9lives", 1.0).is_err());
        assert!(s.set_number("", 1.0).is_err());
        assert!(s.set_number("has space", 1.0).is_err());
        assert!(s.set_number("ok.name_2", 1.0).is_ok());
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut s = chain_sheet();
        s.set_number("a", 3.5).unwrap();
        let incremental: Vec<f64> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| s.value(n).unwrap())
            .collect();
        s.recompute_all().unwrap();
        let full: Vec<f64> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| s.value(n).unwrap())
            .collect();
        assert_eq!(incremental, full);
    }

    #[test]
    fn levels_stratify_the_graph() {
        let mut s = Sheet::new();
        s.set_number("x", 1.0).unwrap();
        s.set_formula("left", "x + 1").unwrap();
        s.set_formula("right", "x * 10").unwrap();
        s.set_formula("join", "left + right").unwrap();
        assert_eq!(s.level_widths().unwrap(), vec![2, 1]);
    }

    #[test]
    fn explain_renders_the_dependency_tree() {
        let s = chain_sheet();
        let text = s.explain("d").unwrap();
        // Root shows the formula and value; children are indented.
        assert!(text.starts_with("d = c * c  [9]"));
        assert!(text.contains("└─ c = b + 1  [3]"));
        assert!(text.contains("b = a * 2  [2]"));
        assert!(text.contains("a  [1]"));
        // Depth increases along the chain.
        let a_line = text.lines().find(|l| l.contains("a  [1]")).unwrap();
        let c_line = text.lines().find(|l| l.contains("c = ")).unwrap();
        assert!(a_line.find('─').unwrap() > c_line.find('─').unwrap());
    }

    #[test]
    fn explain_branches_use_tee_connectors() {
        let mut s = Sheet::new();
        s.set_number("x", 1.0).unwrap();
        s.set_number("y", 2.0).unwrap();
        s.set_formula("sum2", "x + y").unwrap();
        s.set_formula("top", "sum2 * 2").unwrap();
        let text = s.explain("top").unwrap();
        assert!(text.contains("├─ x  [1]"));
        assert!(text.contains("└─ y  [2]"));
    }

    #[test]
    fn explain_literal_and_missing() {
        let s = chain_sheet();
        assert!(s.explain("a").unwrap().starts_with("a  [1]"));
        assert!(s.explain("ghost").is_err());
    }

    #[test]
    fn json_round_trip_restores_values() {
        let s = chain_sheet();
        let json = s.to_json().unwrap();
        let restored = Sheet::from_json(&json).unwrap();
        for name in ["a", "b", "c", "d"] {
            assert_eq!(restored.value(name).unwrap(), s.value(name).unwrap());
        }
    }

    #[test]
    fn json_round_trip_preserves_formulas_dynamically() {
        let s = chain_sheet();
        let mut restored = Sheet::from_json(&s.to_json().unwrap()).unwrap();
        restored.set_number("a", 10.0).unwrap();
        assert_eq!(restored.value("d").unwrap(), 441.0); // (10*2+1)²
    }

    #[test]
    fn serde_round_trip_rebuilds_programs_and_values() {
        // Through serde directly (not `to_json`/`from_json`): deserialized
        // sheets must hold recompiled programs and freshly recomputed
        // values.
        let mut s = chain_sheet();
        s.set_formula("e", "min(d, 100) + sqrt(c)").unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let mut restored: Sheet = serde_json::from_str(&json).unwrap();
        for name in ["a", "b", "c", "d", "e"] {
            assert_eq!(
                restored.value(name).unwrap().to_bits(),
                s.value(name).unwrap().to_bits(),
                "cell {name}"
            );
            // Programs are live, not just stored text.
            if matches!(restored.content(name).unwrap(), CellContent::Formula { .. }) {
                assert_eq!(
                    restored.programs.get(name),
                    s.programs.get(name),
                    "cell {name} deserialized without a rebuilt program"
                );
            }
        }
        // And they stay live: edits ripple.
        restored.set_number("a", 3.0).unwrap();
        assert_eq!(restored.value("d").unwrap(), 49.0);
    }

    #[test]
    fn deserializing_garbage_references_fails() {
        let json = r#"{"y": {"Formula": {"source_text": "ghost + 1"}}}"#;
        assert!(serde_json::from_str::<Sheet>(json).is_err());
    }

    #[test]
    fn deep_chain_recompute_and_explain_are_iterative() {
        // Regression test for the recursive `topo_visit`/`explain_into`
        // stack-overflow risk: a 10 000-cell chain must recompute (and a
        // deep sub-chain must render) without recursing per edge.
        const DEPTH: usize = 10_000;
        let mut s = Sheet::new();
        s.set_number("base", 1.0).unwrap();
        let mut prev = "base".to_owned();
        for i in 0..DEPTH {
            let name = format!("link{i}");
            s.set_formula(&name, &format!("{prev} + 1")).unwrap();
            prev = name;
        }
        let before = s.evaluation_count();
        s.set_number("base", 2.0).unwrap();
        assert_eq!(s.evaluation_count(), before + DEPTH as u64);
        assert_eq!(s.value(&prev).unwrap(), 2.0 + DEPTH as f64);
        assert_eq!(s.level_widths().unwrap().len(), DEPTH);
        // Explain a deep suffix of the chain (the full 10k render is
        // quadratic in output size; 2 000 levels is far past any call
        // stack while keeping the string small).
        let text = s.explain("link1999").unwrap();
        assert_eq!(text.lines().count(), 2001);
        assert!(text.ends_with("└─ base  [2]\n"));
    }

    #[test]
    fn program_cache_invalidated_on_formula_edit() {
        let mut s = Sheet::new();
        s.set_number("a", 2.0).unwrap();
        s.set_formula("f", "a * 3").unwrap();
        assert_eq!(s.value("f").unwrap(), 6.0);
        s.set_formula("f", "a + 3").unwrap();
        assert_eq!(s.value("f").unwrap(), 5.0);
        s.set_number("a", 10.0).unwrap();
        // The recompute must run the *new* program, not a stale cached one.
        assert_eq!(s.value("f").unwrap(), 13.0);
    }

    #[test]
    fn clone_preserves_engine_state() {
        let mut s = chain_sheet();
        let mut t = s.clone();
        s.set_number("a", 2.0).unwrap();
        t.set_number("a", 3.0).unwrap();
        assert_eq!(s.value("d").unwrap(), 25.0);
        assert_eq!(t.value("d").unwrap(), 49.0);
    }
}

//! Generator tuning knobs: depth, operator mix, filter/index rates,
//! duplicate/mutation rates, and output-format mix.

/// Which wire format a generated artifact is rendered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactFormat {
    /// PostgreSQL `EXPLAIN (FORMAT JSON)` document.
    PgJson,
    /// SQL Server `ShowPlanXML` document.
    SqlServerXml,
}

impl ArtifactFormat {
    /// Short human name (`pg-json` / `mssql-xml`), used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactFormat::PgJson => "pg-json",
            ArtifactFormat::SqlServerXml => "mssql-xml",
        }
    }
}

/// How the stream picks formats for fresh artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatMix {
    /// Every artifact is PostgreSQL JSON.
    PgJson,
    /// Every artifact is SQL Server XML.
    SqlServerXml,
    /// Each fresh artifact picks one of the two uniformly at random.
    Mixed,
}

/// Tuning knobs for [`PlanGenerator`](crate::PlanGenerator).
///
/// Every distribution is driven by the single `seed`, so the same
/// config always produces the byte-identical artifact stream — that
/// determinism is what makes generated workloads reproducible across
/// the bench harnesses and the tests.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed; same seed + same config ⇒ same stream.
    pub seed: u64,
    /// Minimum internal-operator budget per plan (≥ 0; 0 allows bare
    /// scans).
    pub min_ops: usize,
    /// Maximum internal-operator budget per plan.
    pub max_ops: usize,
    /// Relative weight of join operators (Hash/Merge/Nested Loop) in
    /// the internal-operator mix.
    pub join_weight: u32,
    /// Relative weight of aggregation operators (Sorted aggregate /
    /// HashAggregate).
    pub aggregate_weight: u32,
    /// Relative weight of shaping operators (Sort, Unique, Limit,
    /// Materialize, Gather).
    pub shaper_weight: u32,
    /// Probability a scan leaf carries a filter predicate.
    pub filter_rate: f64,
    /// Probability a scan leaf uses an index access path when the
    /// chosen table has an indexed column.
    pub index_rate: f64,
    /// Probability a stream item re-emits a previously generated
    /// artifact verbatim (what exercises the narration cache).
    pub duplicate_rate: f64,
    /// Probability a stream item is a near-duplicate: a previously
    /// generated plan with one [`Mutation`](crate::Mutation) applied.
    pub mutate_rate: f64,
    /// Output-format mix for fresh artifacts.
    pub format: FormatMix,
    /// How many recent fresh artifacts the duplicate/mutant ring
    /// remembers.
    pub history: usize,
    /// Stamp each fresh plan with a serial-bearing leaf predicate (on
    /// by default — the stamp is what keeps fresh artifacts pairwise
    /// distinct). Turn it off when a mutant must differ from its base
    /// by *only* the injected mutation, e.g. for precise plan-diff
    /// assertions.
    pub stamp_serials: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0xA57,
            min_ops: 1,
            max_ops: 4,
            join_weight: 5,
            aggregate_weight: 3,
            shaper_weight: 3,
            filter_rate: 0.45,
            index_rate: 0.35,
            duplicate_rate: 0.0,
            mutate_rate: 0.0,
            format: FormatMix::Mixed,
            history: 64,
            stamp_serials: true,
        }
    }
}

impl GenConfig {
    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the duplicate rate (panics if outside `[0, 1]`).
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "duplicate_rate out of [0,1]");
        self.duplicate_rate = rate;
        self
    }

    /// Builder: set the mutation rate (panics if outside `[0, 1]`).
    pub fn with_mutate_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "mutate_rate out of [0,1]");
        self.mutate_rate = rate;
        self
    }

    /// Builder: set the output format mix.
    pub fn with_format(mut self, format: FormatMix) -> Self {
        self.format = format;
        self
    }

    /// Builder: set the internal-operator budget range.
    pub fn with_ops(mut self, min_ops: usize, max_ops: usize) -> Self {
        assert!(min_ops <= max_ops, "min_ops > max_ops");
        self.min_ops = min_ops;
        self.max_ops = max_ops;
        self
    }

    /// Builder: enable or disable serial-stamping of fresh plans. With
    /// stamping off, fresh artifacts are no longer guaranteed pairwise
    /// distinct — but a mutant differs from its base by exactly the
    /// injected mutation, which is what plan-diff assertions need.
    pub fn with_serial_stamps(mut self, on: bool) -> Self {
        self.stamp_serials = on;
        self
    }
}

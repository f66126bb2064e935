//! Relational schema model: catalogs, tables, columns, and foreign-key
//! relationships. The FK graph is what both the cost-based planner and
//! the Kipf-style random query generator walk.

use std::collections::HashMap;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Text,
    Date,
    Bool,
}

/// How a synthetic column's values are generated; also documents the
/// real benchmark column the definition mirrors.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Sequential primary key 0..n.
    Serial,
    /// Uniform integers in `[lo, hi]`.
    UniformInt(i64, i64),
    /// Zipf-skewed integers in `[0, n)` with exponent `s` (hot keys are
    /// common in FK columns; drives interesting join selectivities).
    ZipfInt(u64, f64),
    /// Uniform floats in `[lo, hi)`.
    UniformFloat(f64, f64),
    /// Uniform dates over `[lo, hi]` days since the TPC-H epoch.
    DateRange(i32, i32),
    /// Categorical with the given dictionary, uniform.
    Categorical(&'static [&'static str]),
    /// Short pseudo-text built from a fixed wordlist; `usize` = words.
    Words(usize),
    /// Foreign key into another table's serial PK (table name stored in
    /// [`ForeignKey`]); values are Zipf-skewed over the parent domain.
    ForeignKey,
}

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    pub distribution: Distribution,
    /// Fraction of NULLs to inject (0.0 for key columns).
    pub null_fraction: f64,
    /// Whether a secondary index exists on this column (access-path
    /// choice input for the planner).
    pub indexed: bool,
}

impl Column {
    /// Plain column with no nulls and no index.
    pub fn new(name: &str, ty: ColumnType, distribution: Distribution) -> Self {
        Column {
            name: name.to_string(),
            ty,
            distribution,
            null_fraction: 0.0,
            indexed: false,
        }
    }

    /// Builder: mark indexed.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }

    /// Builder: set null fraction.
    pub fn with_nulls(mut self, fraction: f64) -> Self {
        self.null_fraction = fraction;
        self
    }
}

/// Foreign key edge: `table.column -> parent_table.parent_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub table: String,
    pub column: String,
    pub parent_table: String,
    pub parent_column: String,
}

/// A table definition with a base cardinality (rows at scale factor
/// 1.0; the data generator scales this).
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub base_rows: usize,
    /// Index of the primary-key column in `columns`, if any.
    pub primary_key: Option<usize>,
}

impl Table {
    /// Look up a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A named schema: tables plus the FK graph.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub name: String,
    tables: Vec<Table>,
    by_name: HashMap<String, usize>,
    foreign_keys: Vec<ForeignKey>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new(name: &str) -> Self {
        Catalog {
            name: name.to_string(),
            tables: Vec::new(),
            by_name: HashMap::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Add a table (panics on duplicate names — schemas are static).
    pub fn add_table(&mut self, table: Table) {
        assert!(
            !self.by_name.contains_key(&table.name),
            "duplicate table {}",
            table.name
        );
        self.by_name.insert(table.name.clone(), self.tables.len());
        self.tables.push(table);
    }

    /// Register a foreign key (both endpoints must exist).
    pub fn add_foreign_key(
        &mut self,
        table: &str,
        column: &str,
        parent: &str,
        parent_column: &str,
    ) {
        assert!(
            self.table(table).and_then(|t| t.column(column)).is_some(),
            "{table}.{column}"
        );
        assert!(
            self.table(parent)
                .and_then(|t| t.column(parent_column))
                .is_some(),
            "{parent}.{parent_column}"
        );
        self.foreign_keys.push(ForeignKey {
            table: table.to_string(),
            column: column.to_string(),
            parent_table: parent.to_string(),
            parent_column: parent_column.to_string(),
        });
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|&i| &self.tables[i])
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// FK edges incident to `table` (either direction) — join
    /// candidates for the random query generator.
    pub fn join_edges(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.table == table || fk.parent_table == table)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Catalog {
        let mut c = Catalog::new("tiny");
        c.add_table(Table {
            name: "a".into(),
            columns: vec![
                Column::new("a_id", ColumnType::Int, Distribution::Serial),
                Column::new("a_val", ColumnType::Int, Distribution::UniformInt(0, 9)),
            ],
            base_rows: 100,
            primary_key: Some(0),
        });
        c.add_table(Table {
            name: "b".into(),
            columns: vec![
                Column::new("b_id", ColumnType::Int, Distribution::Serial),
                Column::new("b_a_id", ColumnType::Int, Distribution::ForeignKey),
            ],
            base_rows: 500,
            primary_key: Some(0),
        });
        c.add_foreign_key("b", "b_a_id", "a", "a_id");
        c
    }

    #[test]
    fn table_lookup() {
        let c = tiny();
        assert!(c.table("a").is_some());
        assert!(c.table("missing").is_none());
        assert_eq!(c.table("b").unwrap().column_index("b_a_id"), Some(1));
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_panics() {
        let mut c = tiny();
        c.add_table(Table {
            name: "a".into(),
            columns: vec![],
            base_rows: 0,
            primary_key: None,
        });
    }

    #[test]
    fn join_edges_bidirectional() {
        let c = tiny();
        assert_eq!(c.join_edges("a").len(), 1);
        assert_eq!(c.join_edges("b").len(), 1);
    }

    #[test]
    #[should_panic]
    fn fk_requires_existing_columns() {
        let mut c = tiny();
        c.add_foreign_key("b", "nope", "a", "a_id");
    }
}

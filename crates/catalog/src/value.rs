//! Runtime values flowing through the mini engine's tuples, predicates,
//! and statistics.

use std::cmp::Ordering;
use std::fmt;

/// A SQL value. `Null` sorts before everything and never equals
/// anything under SQL semantics (use [`Value::sql_eq`]); `PartialOrd`
/// implements a total order for sorting and histogram construction.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    /// Days since 1992-01-01 (the TPC-H epoch); rendered ISO-8601.
    Date(i32),
}

impl Value {
    /// SQL equality: `NULL = x` is never true.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if matches!(self, Value::Null) || matches!(other, Value::Null) {
            return false;
        }
        self.total_cmp(other) == Ordering::Equal
    }

    /// Total comparison across types (numeric types compare by value;
    /// heterogeneous non-numeric comparisons fall back to type rank).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Date(a), Int(b)) => (*a as i64).cmp(b),
            (Int(a), Date(b)) => a.cmp(&(*b as i64)),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// Numeric view if this value is numeric (or a date).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Str(_) => 4,
    }
}

impl PartialEq for Value {
    /// Equality consistent with [`Value::total_cmp`]: `Int(3)` equals
    /// `Float(3.0)`, and `Null` equals `Null` (use [`Value::sql_eq`]
    /// for three-valued SQL semantics).
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => {
                // Days since 1992-01-01, Gregorian.
                let (y, m, day) = date_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

/// Convert days-since-1992-01-01 to (year, month, day).
pub fn date_from_days(days: i32) -> (i32, u32, u32) {
    let mut remaining = days;
    let mut year = 1992;
    loop {
        let year_len = if is_leap(year) { 366 } else { 365 };
        if remaining >= year_len {
            remaining -= year_len;
            year += 1;
        } else if remaining < 0 {
            year -= 1;
            remaining += if is_leap(year) { 366 } else { 365 };
        } else {
            break;
        }
    }
    let month_lengths = month_lengths(year);
    for (i, &len) in month_lengths.iter().enumerate() {
        if remaining < len {
            return (year, i as u32 + 1, (remaining + 1) as u32);
        }
        remaining -= len;
    }
    (year, 12, 31)
}

/// Convert (year, month, day) to days-since-1992-01-01.
pub fn days_from_date(year: i32, month: u32, day: u32) -> i32 {
    let mut days = 0i32;
    if year >= 1992 {
        for y in 1992..year {
            days += if is_leap(y) { 366 } else { 365 };
        }
    } else {
        for y in year..1992 {
            days -= if is_leap(y) { 366 } else { 365 };
        }
    }
    let ml = month_lengths(year);
    for m in 1..month {
        days += ml[(m - 1) as usize];
    }
    days + day as i32 - 1
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn month_lengths(y: i32) -> [i32; 12] {
    [
        31,
        if is_leap(y) { 29 } else { 28 },
        31,
        30,
        31,
        30,
        31,
        31,
        30,
        31,
        30,
        31,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_never_sql_equals() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Int(1), Value::Null, Value::Int(0)];
        v.sort();
        assert_eq!(v[0], Value::Null);
    }

    #[test]
    fn date_round_trip_epoch() {
        assert_eq!(date_from_days(0), (1992, 1, 1));
        assert_eq!(days_from_date(1992, 1, 1), 0);
    }

    #[test]
    fn date_round_trip_many() {
        for d in [0, 1, 31, 59, 60, 365, 366, 1000, 2500, -1, -365] {
            let (y, m, day) = date_from_days(d);
            assert_eq!(
                days_from_date(y, m, day),
                d,
                "day offset {d} -> {y}-{m}-{day}"
            );
        }
    }

    #[test]
    fn leap_year_february() {
        // 1992 is a leap year: Jan has 31 days, so day 59 is Feb 29.
        assert_eq!(date_from_days(59), (1992, 2, 29));
        assert_eq!(date_from_days(60), (1992, 3, 1));
    }

    #[test]
    fn display_date_is_iso() {
        assert_eq!(Value::Date(0).to_string(), "1992-01-01");
        assert_eq!(Value::Date(366).to_string(), "1993-01-01");
    }

    #[test]
    fn hash_consistent_for_equal_numerics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(3));
        // Float(3.0) hashes the same as Int(3) because both hash their f64 bits.
        assert!(set.contains(&Value::Float(3.0)));
    }
}

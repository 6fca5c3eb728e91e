//! Result digests: one 64-bit fingerprint per query result, so repeated
//! passes can be checked against the first without keeping the rows.

use ingot_common::{fnv1a64, Row, Value};

fn row_digest(row: &Row) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    for v in row.values() {
        match v {
            Value::Null => bytes.push(0),
            Value::Int(i) => {
                bytes.push(1);
                bytes.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                bytes.push(2);
                bytes.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                bytes.push(3);
                bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
                bytes.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => bytes.extend_from_slice(&[4, u8::from(*b)]),
        }
    }
    fnv1a64(&bytes)
}

/// Digest of `rows`. With `ordered` the row order is part of the digest;
/// otherwise the rows are compared as a multiset.
pub fn result_digest(rows: &[Row], ordered: bool) -> u64 {
    let mut digests: Vec<u64> = rows.iter().map(row_digest).collect();
    if !ordered {
        digests.sort_unstable();
    }
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Whether a statement's row order is defined (it has an `ORDER BY`).
pub fn is_ordered(sql: &str) -> bool {
    sql.to_ascii_lowercase().contains("order by")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[(i64, &str)]) -> Vec<Row> {
        vals.iter()
            .map(|(i, s)| Row::new(vec![Value::Int(*i), Value::Str((*s).into())]))
            .collect()
    }

    #[test]
    fn unordered_digest_ignores_row_order_but_not_multiplicity() {
        let a = rows(&[(1, "x"), (2, "y"), (2, "y")]);
        let b = rows(&[(2, "y"), (1, "x"), (2, "y")]);
        let c = rows(&[(1, "x"), (2, "y")]);
        assert_eq!(result_digest(&a, false), result_digest(&b, false));
        assert_ne!(result_digest(&a, false), result_digest(&c, false));
    }

    #[test]
    fn ordered_digest_sees_row_order() {
        let a = rows(&[(1, "x"), (2, "y")]);
        let b = rows(&[(2, "y"), (1, "x")]);
        assert_ne!(result_digest(&a, true), result_digest(&b, true));
        assert_eq!(result_digest(&a, true), result_digest(&a.clone(), true));
    }

    #[test]
    fn digest_separates_types_and_string_boundaries() {
        let int = vec![Row::new(vec![Value::Int(1)])];
        let float = vec![Row::new(vec![Value::Float(1.0)])];
        assert_ne!(result_digest(&int, true), result_digest(&float, true));
        let ab_c = vec![Row::new(vec![
            Value::Str("ab".into()),
            Value::Str("c".into()),
        ])];
        let a_bc = vec![Row::new(vec![
            Value::Str("a".into()),
            Value::Str("bc".into()),
        ])];
        assert_ne!(result_digest(&ab_c, true), result_digest(&a_bc, true));
    }

    #[test]
    fn order_by_detection() {
        assert!(is_ordered("select a from t ORDER BY a"));
        assert!(!is_ordered("select a from t group by a"));
    }
}

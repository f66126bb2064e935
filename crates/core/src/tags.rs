//! The special-tag vocabulary of paper Table 1, used to strip
//! schema-dependent values (relation names, predicates, conditions…)
//! from training labels and re-substitute them after decoding.

/// The tag set of Table 1.
pub const TAGS: &[&str] = &["<I>", "<F>", "<C>", "<T>", "<TN>", "<A>", "<G>"];

/// An ordered tag → concrete-value binding list, recorded while a
/// narration step is generated in tagged style.
pub type TagBinding = Vec<(String, String)>;

/// Replace each tag occurrence in `text` with its bound concrete value,
/// consuming bindings left to right (tags may repeat — e.g. two `<T>`s
/// in a join step).
pub fn substitute_tags(text: &str, bindings: &TagBinding) -> String {
    let mut out = text.to_string();
    for (tag, value) in bindings {
        if let Some(pos) = out.find(tag.as_str()) {
            out.replace_range(pos..pos + tag.len(), value);
        }
    }
    out
}

/// Inverse of [`substitute_tags`]: replace the first occurrence of each
/// bound concrete value with its tag (used to re-abstract externally
/// produced text).
pub fn abstract_tags(text: &str, bindings: &TagBinding) -> String {
    let mut out = text.to_string();
    for (tag, value) in bindings {
        if value.is_empty() {
            continue;
        }
        if let Some(pos) = out.find(value.as_str()) {
            out.replace_range(pos..pos + value.len(), tag);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitute_in_order() {
        let bindings: TagBinding = vec![
            ("<T>".into(), "inproceedings".into()),
            ("<T>".into(), "T1".into()),
            ("<C>".into(), "((i.k) = (p.k))".into()),
        ];
        let s = substitute_tags(
            "hash <T> and perform hash join on <T> and T1 on condition <C>",
            &bindings,
        );
        // First <T> -> inproceedings, second <T> -> T1.
        assert_eq!(
            s,
            "hash inproceedings and perform hash join on T1 and T1 on condition ((i.k) = (p.k))"
        );
    }

    #[test]
    fn round_trip_abstract_then_substitute() {
        let bindings: TagBinding = vec![
            ("<T>".into(), "publication".into()),
            ("<F>".into(), "(title containing 'July')".into()),
            ("<TN>".into(), "T1".into()),
        ];
        let concrete = "perform sequential scan on publication and filtering on \
                        (title containing 'July') to get the intermediate relation T1.";
        let tagged = abstract_tags(concrete, &bindings);
        assert_eq!(
            tagged,
            "perform sequential scan on <T> and filtering on <F> to get the intermediate relation <TN>."
        );
        assert_eq!(substitute_tags(&tagged, &bindings), concrete);
    }

    #[test]
    fn unbound_tags_left_alone() {
        let s = substitute_tags("scan <T> end", &vec![]);
        assert_eq!(s, "scan <T> end");
    }
}

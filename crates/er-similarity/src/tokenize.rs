//! String normalization and tokenization.
//!
//! All string metrics in this crate operate on normalized tokens: lower-cased,
//! alphanumeric runs, with punctuation acting as separators.  Entity-set
//! attributes (author lists, artist lists) are additionally split on an entity
//! separator (`,`, `;`, `&`, ` and `) before token-level processing.

/// Normalizes a raw string: alphanumeric characters lower-cased by their full
/// Unicode mapping (`Ü` → `ü`), every other run collapsed into one space,
/// trimmed.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// Appends [`normalize`]`(s)` to `out`.
pub(crate) fn normalize_into(s: &str, out: &mut String) {
    let start = out.len();
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
            last_space = false;
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

/// Splits a string into lower-cased alphanumeric tokens.
pub fn tokens(s: &str) -> Vec<String> {
    normalize(s)
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Splits an entity-set value into its entity names.
///
/// Entities are separated by commas, semicolons, ampersands, pipes or the word
/// `and`.  Each entity is normalized but kept as a whole string so that
/// entity-level metrics (`distinct-entity`, `diff-cardinality`, entity-based
/// Jaccard) can compare whole names.
pub fn entities(s: &str) -> Vec<String> {
    entity_parts(s).map(normalize).filter(|n| !n.is_empty()).collect()
}

/// The raw parts of an entity-set value, before normalization: one per
/// entity, plus empty or punctuation-only parts that normalize to nothing.
pub(crate) fn entity_parts(s: &str) -> impl Iterator<Item = &str> {
    s.split([',', ';', '&', '|']).flat_map(|chunk| chunk.split(" and "))
}

/// First-letter abbreviation of a value: the concatenated initial letters of
/// its tokens (e.g. `"very large data bases"` → `"vldb"`).
///
/// Used by the abbreviation-aware difference metrics of the paper
/// (`abbr-non-substring`, `abbr-non-prefix`, `abbr-non-suffix`).
pub fn abbreviation(s: &str) -> String {
    tokens(s).iter().filter_map(|t| t.chars().next()).collect()
}

/// Character q-grams of a normalized string (spaces included as `_`).
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q must be at least 1");
    let padded: Vec<char> = normalize(s).chars().map(|c| if c == ' ' { '_' } else { c }).collect();
    if padded.len() < q {
        if padded.is_empty() {
            return Vec::new();
        }
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Whether a token is "specific": at least 8 characters long or containing
/// digits, so that it is likely to identify an entity (model numbers, edition
/// numbers, years).
///
/// This is the fallback key-token test used by `diff-key-token` when no
/// corpus statistics are available.
pub fn is_specific_token(t: &str) -> bool {
    t.chars().any(|c| c.is_ascii_digit()) || t.chars().count() >= 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_collapses() {
        assert_eq!(normalize("  Hello,   World!! "), "hello world");
        assert_eq!(normalize("VLDB'99"), "vldb 99");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("..."), "");
    }

    #[test]
    fn normalize_lowercases_beyond_ascii() {
        assert_eq!(normalize("MÜLLER, Jürgen"), "müller jürgen");
        assert_eq!(tokens("ÉCOLE"), tokens("école"));
        assert_eq!(tokens("ÉCOLE"), vec!["école"]);
    }

    #[test]
    fn ascii_strings_normalize_as_ascii_lowercasing_does() {
        // The ASCII-only rule: lower-case ASCII letters, keep alphanumerics,
        // and collapse every other run into one space.
        let ascii_rule = |s: &str| {
            let mapped: String = s
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        ' '
                    }
                })
                .collect();
            mapped.split_whitespace().collect::<Vec<_>>().join(" ")
        };
        let every_ascii: String = (0u8..128).map(char::from).collect();
        for s in [
            every_ascii.as_str(),
            "  The R*-Tree: An Efficient Index  ",
            "VLDB'99 -- Proc. 25th Int. Conf.",
            "iPod Nano 4GB (Silver) MB598LL/A",
        ] {
            assert_eq!(normalize(s), ascii_rule(s), "{s:?}");
        }
    }

    #[test]
    fn tokens_split_on_punctuation() {
        assert_eq!(
            tokens("The R*-Tree: An Efficient Index"),
            vec!["the", "r", "tree", "an", "efficient", "index"]
        );
        assert!(tokens("").is_empty());
    }

    #[test]
    fn entity_splitting() {
        let authors = entities("T Brinkhoff, H Kriegel, R Schneider, B Seeger");
        assert_eq!(authors.len(), 4);
        assert_eq!(authors[0], "t brinkhoff");
        assert_eq!(authors[3], "b seeger");

        let duo = entities("Simon & Garfunkel");
        assert_eq!(duo, vec!["simon", "garfunkel"]);

        let trio = entities("Alice; Bob and Carol");
        assert_eq!(trio, vec!["alice", "bob", "carol"]);
    }

    #[test]
    fn abbreviation_takes_initials() {
        assert_eq!(abbreviation("Very Large Data Bases"), "vldb");
        assert_eq!(abbreviation("SIGMOD"), "s");
        assert_eq!(abbreviation(""), "");
    }

    #[test]
    fn qgram_extraction() {
        assert_eq!(qgrams("abcd", 2), vec!["ab", "bc", "cd"]);
        assert_eq!(qgrams("a b", 2), vec!["a_", "_b"]);
        assert_eq!(qgrams("ab", 3), vec!["ab"]);
        assert!(qgrams("", 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn qgrams_reject_zero() {
        qgrams("abc", 0);
    }

    #[test]
    fn specific_token_detection() {
        assert!(is_specific_token("mp3player2000"));
        assert!(is_specific_token("45"));
        assert!(is_specific_token("thinkpad"));
        assert!(!is_specific_token("the"));
        assert!(!is_specific_token("photo"));
    }

    #[test]
    fn specific_token_length_counts_characters_not_bytes() {
        // Four two-byte characters: 8 bytes, but short.
        assert!(!is_specific_token("éééé"));
        assert!(!is_specific_token("中文中文中文中"));
        assert!(is_specific_token("éééééééé"));
        assert!(is_specific_token("中文中文中文中文"));
    }
}

//! A case-insensitive HTTP header multimap.

use std::fmt;

/// An ordered, case-insensitive collection of HTTP headers. Multiple values per name
/// are supported (needed for `Set-Cookie` and the ESCUDO policy headers, which may
/// repeat).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header collection.
    #[must_use]
    pub fn new() -> Self {
        Headers::default()
    }

    /// Appends a header, preserving any existing values with the same name.
    pub fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replaces all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.remove(name);
        self.entries.push((name.to_string(), value.into()));
    }

    /// Removes every value of `name`. Returns how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before - self.entries.len()
    }

    /// The first value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values of `name`, in insertion order.
    #[must_use]
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// `true` when at least one value of `name` is present.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterates over every `(name, value)` pair in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no headers are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The comma-separated directives of every `Cache-Control` header line,
    /// trimmed. Directive names compare case-insensitively, in place.
    fn cache_directives(&self) -> impl Iterator<Item = &str> + '_ {
        self.entries
            .iter()
            .filter(|(name, _)| name.eq_ignore_ascii_case("Cache-Control"))
            .flat_map(|(_, value)| value.split(','))
            .map(str::trim)
    }

    /// The `max-age=N` freshness lifetime in seconds from `Cache-Control`, if any.
    /// Malformed values are ignored (the response is then simply not cacheable).
    #[must_use]
    pub fn cache_max_age(&self) -> Option<u64> {
        const PREFIX: &str = "max-age=";
        self.cache_directives().find_map(|directive| {
            let name = directive.get(..PREFIX.len())?;
            if !name.eq_ignore_ascii_case(PREFIX) {
                return None;
            }
            directive[PREFIX.len()..].trim().parse().ok()
        })
    }

    /// `true` when `Cache-Control` carries a `no-store` directive — the response
    /// must never enter any cache.
    #[must_use]
    pub fn cache_no_store(&self) -> bool {
        self.cache_directives()
            .any(|directive| directive.eq_ignore_ascii_case("no-store"))
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            writeln!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

impl<N: Into<String>, V: Into<String>> FromIterator<(N, V)> for Headers {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut headers = Headers::new();
        for (n, v) in iter {
            headers.append(n, v);
        }
        headers
    }
}

impl<N: Into<String>, V: Into<String>> Extend<(N, V)> for Headers {
    fn extend<T: IntoIterator<Item = (N, V)>>(&mut self, iter: T) {
        for (n, v) in iter {
            self.append(n, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("Content-Length"));
    }

    #[test]
    fn multiple_values_are_preserved_in_order() {
        let mut h = Headers::new();
        h.append("Set-Cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        h.append("X-Other", "z");
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        assert_eq!(h.get("Set-Cookie"), Some("a=1"));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn set_replaces_all_values() {
        let mut h = Headers::new();
        h.append("X-A", "1");
        h.append("X-A", "2");
        h.set("x-a", "3");
        assert_eq!(h.get_all("X-A"), vec!["3"]);
    }

    #[test]
    fn remove_reports_count() {
        let mut h: Headers = [("A", "1"), ("a", "2"), ("B", "3")].into_iter().collect();
        assert_eq!(h.remove("A"), 2);
        assert_eq!(h.remove("A"), 0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn display_is_http_like() {
        let h: Headers = [("Host", "example.com")].into_iter().collect();
        assert_eq!(h.to_string(), "Host: example.com\n");
    }

    #[test]
    fn cache_control_max_age_parses_case_insensitively() {
        let h: Headers = [("cache-control", "public, MAX-AGE=60")]
            .into_iter()
            .collect();
        assert_eq!(h.cache_max_age(), Some(60));
        assert!(!h.cache_no_store());

        let h: Headers = [("Cache-Control", "max-age=abc")].into_iter().collect();
        assert_eq!(h.cache_max_age(), None);

        let h = Headers::new();
        assert_eq!(h.cache_max_age(), None);
        assert!(!h.cache_no_store());
    }

    #[test]
    fn cache_control_no_store_wins_even_next_to_max_age() {
        let h: Headers = [("Cache-Control", "No-Store, max-age=300")]
            .into_iter()
            .collect();
        assert!(h.cache_no_store());
        assert_eq!(h.cache_max_age(), Some(300));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut h: Headers = [("A", "1")].into_iter().collect();
        h.extend([("B", "2")]);
        assert!(h.contains("a"));
        assert!(h.contains("b"));
        assert!(!h.is_empty());
    }
}

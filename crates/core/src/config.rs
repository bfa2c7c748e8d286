//! The configuration formats web applications use to communicate ring assignments to
//! the browser.
//!
//! * DOM regions are labelled with **access-control (AC) tags**: `div` elements carrying
//!   `ring`, `r`, `w`, `x` and `nonce` attributes ([`AcAttributes`]).
//! * Cookies and native-code APIs are labelled with **optional HTTP headers**
//!   ([`CookiePolicy`] / [`ApiPolicy`], header names [`COOKIE_POLICY_HEADER`] and
//!   [`API_POLICY_HEADER`]).
//!
//! Both formats are ignored by non-ESCUDO browsers, which is what makes ESCUDO
//! configurations backwards compatible.

use std::fmt;
use std::str::FromStr;

use crate::acl::Acl;
use crate::error::ConfigError;
use crate::nonce::Nonce;
use crate::ring::Ring;
use crate::scoping;

/// The optional HTTP header carrying cookie ring assignments,
/// e.g. `X-Escudo-Cookie-Policy: name=phpbb2mysql_sid; ring=1; r=1; w=1; x=1`.
pub const COOKIE_POLICY_HEADER: &str = "X-Escudo-Cookie-Policy";

/// The optional HTTP header carrying native-code-API ring assignments,
/// e.g. `X-Escudo-Api-Policy: api=xmlhttprequest; ring=1`.
pub const API_POLICY_HEADER: &str = "X-Escudo-Api-Policy";

/// The attribute names recognized on AC tags.
pub const AC_ATTRIBUTES: [&str; 5] = ["ring", "r", "w", "x", "nonce"];

/// The ESCUDO attributes found on a single AC (`div`) tag, exactly as declared by the
/// application — before the scoping rule and fail-safe defaults are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AcAttributes {
    /// The declared ring (`ring=`), if any.
    pub ring: Option<Ring>,
    /// The declared read bound (`r=`), if any.
    pub read: Option<Ring>,
    /// The declared write bound (`w=`), if any.
    pub write: Option<Ring>,
    /// The declared use bound (`x=`), if any.
    pub use_: Option<Ring>,
    /// The markup-randomization nonce (`nonce=`), if any.
    pub nonce: Option<Nonce>,
}

impl AcAttributes {
    /// Parses the ESCUDO attributes out of an element's attribute list. Names match
    /// in any ASCII case (`RING` is `ring`), compared in place, so parsing allocates
    /// nothing unless it reports an error; a later duplicate overrides an earlier
    /// one. Unrelated attributes are ignored; malformed ESCUDO attributes are
    /// reported so the browser can fall back to fail-safe defaults (and log the
    /// problem) rather than guess. The page loader calls this once per element, in
    /// its single labelling walk.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered (invalid ring, ACL, or nonce).
    pub fn parse<'a, I, S>(attributes: I) -> Result<Self, ConfigError>
    where
        I: IntoIterator<Item = (&'a str, S)>,
        S: AsRef<str>,
    {
        let acl_bound = |value: &str| {
            value
                .parse()
                .map_err(|_| ConfigError::InvalidAcl(value.into()))
        };
        let mut out = AcAttributes::default();
        for (name, value) in attributes {
            let value = value.as_ref();
            if name.eq_ignore_ascii_case("ring") {
                out.ring = Some(value.parse()?);
            } else if name.eq_ignore_ascii_case("r") {
                out.read = Some(acl_bound(value)?);
            } else if name.eq_ignore_ascii_case("w") {
                out.write = Some(acl_bound(value)?);
            } else if name.eq_ignore_ascii_case("x") {
                out.use_ = Some(acl_bound(value)?);
            } else if name.eq_ignore_ascii_case("nonce") {
                out.nonce = Some(value.parse()?);
            }
        }
        Ok(out)
    }

    /// `true` when the element declares any ESCUDO ring/ACL information (i.e. is an AC
    /// tag in the paper's sense). A bare `nonce` does not make an AC tag by itself.
    #[must_use]
    pub fn is_ac_tag(&self) -> bool {
        self.ring.is_some() || self.read.is_some() || self.write.is_some() || self.use_.is_some()
    }

    /// The declared ACL, if any of `r`/`w`/`x` are present. Missing entries take the
    /// fail-safe value (ring 0 only), per the paper's defaults.
    #[must_use]
    pub fn declared_acl(&self) -> Option<Acl> {
        if self.read.is_none() && self.write.is_none() && self.use_.is_none() {
            return None;
        }
        Some(Acl::new(
            self.read.unwrap_or(Ring::INNERMOST),
            self.write.unwrap_or(Ring::INNERMOST),
            self.use_.unwrap_or(Ring::INNERMOST),
        ))
    }

    /// Resolves the declared attributes against a parent scope: applies the scoping
    /// rule to the ring and clamps/defaults the ACL.
    #[must_use]
    pub fn resolve(&self, parent_ring: Ring) -> ResolvedLabel {
        let ring = scoping::effective_ring(parent_ring, self.ring);
        let acl = scoping::effective_acl(ring, self.declared_acl());
        ResolvedLabel { ring, acl }
    }

    /// Serializes the attributes back to `name="value"` pairs in canonical order —
    /// used by the server-side page generators.
    #[must_use]
    pub fn to_attribute_pairs(&self) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        if let Some(ring) = self.ring {
            pairs.push(("ring".to_string(), ring.level().to_string()));
        }
        if let Some(r) = self.read {
            pairs.push(("r".to_string(), r.level().to_string()));
        }
        if let Some(w) = self.write {
            pairs.push(("w".to_string(), w.level().to_string()));
        }
        if let Some(x) = self.use_ {
            pairs.push(("x".to_string(), x.level().to_string()));
        }
        if let Some(nonce) = self.nonce {
            pairs.push(("nonce".to_string(), nonce.to_string()));
        }
        pairs
    }
}

/// A ring + ACL pair after defaults and the scoping rule have been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedLabel {
    /// The effective ring.
    pub ring: Ring,
    /// The effective ACL.
    pub acl: Acl,
}

/// The native-code APIs whose invocation ESCUDO gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeApi {
    /// The `XMLHttpRequest` API used by AJAX code to talk to the server.
    XmlHttpRequest,
    /// The DOM API (`document.getElementById`, `createElement`, …).
    DomApi,
    /// `document.cookie` — the scripting interface to the cookie store.
    CookieApi,
    /// The history / visited-link interface (browser state, always ring 0).
    History,
}

impl NativeApi {
    /// All gated APIs.
    pub const ALL: [NativeApi; 4] = [
        NativeApi::XmlHttpRequest,
        NativeApi::DomApi,
        NativeApi::CookieApi,
        NativeApi::History,
    ];

    /// The identifier used in the `X-Escudo-Api-Policy` header.
    #[must_use]
    pub const fn header_name(self) -> &'static str {
        match self {
            NativeApi::XmlHttpRequest => "xmlhttprequest",
            NativeApi::DomApi => "dom",
            NativeApi::CookieApi => "cookie",
            NativeApi::History => "history",
        }
    }

    /// Parses an API identifier as used in the header.
    #[must_use]
    pub fn from_header_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "xmlhttprequest" | "xhr" => Some(NativeApi::XmlHttpRequest),
            "dom" | "domapi" => Some(NativeApi::DomApi),
            "cookie" | "cookies" => Some(NativeApi::CookieApi),
            "history" => Some(NativeApi::History),
            _ => None,
        }
    }
}

impl fmt::Display for NativeApi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.header_name())
    }
}

/// A per-cookie ESCUDO policy communicated via [`COOKIE_POLICY_HEADER`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CookiePolicy {
    /// The cookie name this policy applies to (`*` matches every cookie).
    pub name: String,
    /// The ring the cookie is assigned to.
    pub ring: Ring,
    /// The cookie's ACL (bounds on explicit read/write via `document.cookie` and on
    /// implicit use, i.e. attachment to outgoing requests).
    pub acl: Acl,
}

impl CookiePolicy {
    /// Creates a policy whose ACL uniformly admits rings up to the cookie's ring.
    #[must_use]
    pub fn new(name: impl Into<String>, ring: Ring) -> Self {
        CookiePolicy {
            name: name.into(),
            ring,
            acl: Acl::uniform(ring),
        }
    }

    /// Sets an explicit ACL (builder style); it is clamped to the cookie's ring.
    #[must_use]
    pub fn with_acl(mut self, acl: Acl) -> Self {
        self.acl = acl.clamped_to_ring(self.ring);
        self
    }

    /// `true` when the policy applies to the given cookie name.
    #[must_use]
    pub fn applies_to(&self, cookie_name: &str) -> bool {
        self.name == "*" || self.name == cookie_name
    }

    /// Serializes the policy as a header value.
    #[must_use]
    pub fn to_header_value(&self) -> String {
        format!(
            "name={}; ring={}; r={}; w={}; x={}",
            self.name,
            self.ring.level(),
            self.acl.read.level(),
            self.acl.write.level(),
            self.acl.use_.level()
        )
    }
}

impl FromStr for CookiePolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields = parse_directive_fields(s, COOKIE_POLICY_HEADER)?;
        let name = fields
            .iter()
            .find(|(k, _)| k == "name")
            .map(|(_, v)| v.clone())
            .ok_or_else(|| ConfigError::InvalidHeader {
                header: COOKIE_POLICY_HEADER.to_string(),
                reason: "missing `name=` field".to_string(),
            })?;
        let ring = lookup_ring(&fields, "ring")?.unwrap_or(Ring::INNERMOST);
        let read = lookup_ring(&fields, "r")?.unwrap_or(ring);
        let write = lookup_ring(&fields, "w")?.unwrap_or(ring);
        let use_ = lookup_ring(&fields, "x")?.unwrap_or(ring);
        Ok(CookiePolicy {
            name,
            ring,
            acl: Acl::new(read, write, use_).clamped_to_ring(ring),
        })
    }
}

impl fmt::Display for CookiePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_header_value())
    }
}

/// A native-API ESCUDO policy communicated via [`API_POLICY_HEADER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiPolicy {
    /// The API being labelled.
    pub api: NativeApi,
    /// The least-privileged ring allowed to invoke the API. (By the fail-safe default,
    /// absent a header every API is assigned to ring 0.)
    pub ring: Ring,
}

impl ApiPolicy {
    /// Creates an API policy.
    #[must_use]
    pub const fn new(api: NativeApi, ring: Ring) -> Self {
        ApiPolicy { api, ring }
    }

    /// Serializes the policy as a header value.
    #[must_use]
    pub fn to_header_value(&self) -> String {
        format!("api={}; ring={}", self.api.header_name(), self.ring.level())
    }
}

impl FromStr for ApiPolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields = parse_directive_fields(s, API_POLICY_HEADER)?;
        let api_name = fields
            .iter()
            .find(|(k, _)| k == "api")
            .map(|(_, v)| v.clone())
            .ok_or_else(|| ConfigError::InvalidHeader {
                header: API_POLICY_HEADER.to_string(),
                reason: "missing `api=` field".to_string(),
            })?;
        let api =
            NativeApi::from_header_name(&api_name).ok_or_else(|| ConfigError::InvalidHeader {
                header: API_POLICY_HEADER.to_string(),
                reason: format!("unknown api `{api_name}`"),
            })?;
        let ring = lookup_ring(&fields, "ring")?.unwrap_or(Ring::INNERMOST);
        Ok(ApiPolicy { api, ring })
    }
}

impl fmt::Display for ApiPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_header_value())
    }
}

/// Splits a `k=v; k=v; …` header value into its fields.
fn parse_directive_fields(s: &str, header: &str) -> Result<Vec<(String, String)>, ConfigError> {
    let mut fields = Vec::new();
    for part in s.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| ConfigError::InvalidHeader {
                header: header.to_string(),
                reason: format!("field `{part}` is not of the form key=value"),
            })?;
        fields.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    if fields.is_empty() {
        return Err(ConfigError::InvalidHeader {
            header: header.to_string(),
            reason: "empty header value".to_string(),
        });
    }
    Ok(fields)
}

fn lookup_ring(fields: &[(String, String)], key: &str) -> Result<Option<Ring>, ConfigError> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, v)) => Ok(Some(v.parse()?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Operation;

    #[test]
    fn parses_the_figure_2_example() {
        // <div ring=2 r=1 w=0 x=2>
        let attrs = AcAttributes::parse([
            ("ring", "2"),
            ("r", "1"),
            ("w", "0"),
            ("x", "2"),
            ("class", "post"),
        ])
        .unwrap();
        assert!(attrs.is_ac_tag());
        assert_eq!(attrs.ring, Some(Ring::new(2)));
        assert_eq!(
            attrs.declared_acl(),
            Some(Acl::new(Ring::new(1), Ring::new(0), Ring::new(2)))
        );
    }

    #[test]
    fn attribute_names_match_in_any_case() {
        let attrs = AcAttributes::parse([("RING", "2"), ("R", "1"), ("Nonce", "7")]).unwrap();
        assert_eq!(attrs.ring, Some(Ring::new(2)));
        assert_eq!(attrs.read, Some(Ring::new(1)));
        assert_eq!(attrs.nonce, Some("7".parse().unwrap()));
        // A name that only contains an AC name is not one.
        assert_eq!(
            AcAttributes::parse([("rings", "2"), ("xr", "1")]).unwrap(),
            AcAttributes::default()
        );
    }

    #[test]
    fn non_ac_attributes_are_ignored() {
        let attrs = AcAttributes::parse([("class", "post"), ("id", "main")]).unwrap();
        assert!(!attrs.is_ac_tag());
        assert_eq!(attrs, AcAttributes::default());
    }

    #[test]
    fn nonce_alone_is_not_an_ac_tag() {
        let attrs = AcAttributes::parse([("nonce", "1234")]).unwrap();
        assert!(!attrs.is_ac_tag());
        assert_eq!(attrs.nonce, Some(Nonce::from_raw(1234)));
    }

    #[test]
    fn malformed_ring_is_an_error() {
        assert!(AcAttributes::parse([("ring", "kernel")]).is_err());
        assert!(AcAttributes::parse([("r", "-1")]).is_err());
        assert!(AcAttributes::parse([("nonce", "0xff")]).is_err());
    }

    #[test]
    fn partial_acl_defaults_missing_entries_to_ring_zero() {
        let attrs = AcAttributes::parse([("ring", "3"), ("w", "2")]).unwrap();
        let acl = attrs.declared_acl().unwrap();
        assert_eq!(acl.write, Ring::new(2));
        assert_eq!(acl.read, Ring::INNERMOST);
        assert_eq!(acl.use_, Ring::INNERMOST);
    }

    #[test]
    fn resolve_applies_scoping_and_defaults() {
        // Inner scope declares a *more* privileged ring than its parent: clamped.
        let attrs = AcAttributes::parse([("ring", "0")]).unwrap();
        let resolved = attrs.resolve(Ring::new(2));
        assert_eq!(resolved.ring, Ring::new(2));
        // No ACL declared: fail-safe r=0,w=0,x=0.
        assert_eq!(resolved.acl, Acl::ring_zero_only());

        // No ring declared: inherit the parent.
        let attrs = AcAttributes::parse([("r", "3"), ("w", "3"), ("x", "3")]).unwrap();
        let resolved = attrs.resolve(Ring::new(1));
        assert_eq!(resolved.ring, Ring::new(1));
        // Declared ACL is clamped to the effective ring.
        assert_eq!(resolved.acl, Acl::uniform(Ring::new(1)));
    }

    #[test]
    fn attribute_pairs_roundtrip() {
        let attrs = AcAttributes {
            ring: Some(Ring::new(2)),
            read: Some(Ring::new(1)),
            write: Some(Ring::new(0)),
            use_: Some(Ring::new(2)),
            nonce: Some(Nonce::from_raw(99)),
        };
        let pairs = attrs.to_attribute_pairs();
        let reparsed =
            AcAttributes::parse(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))).unwrap();
        assert_eq!(reparsed, attrs);
    }

    #[test]
    fn cookie_policy_header_roundtrip() {
        let policy = CookiePolicy::new("phpbb2mysql_sid", Ring::new(1));
        let value = policy.to_header_value();
        assert_eq!(value, "name=phpbb2mysql_sid; ring=1; r=1; w=1; x=1");
        let parsed: CookiePolicy = value.parse().unwrap();
        assert_eq!(parsed, policy);
    }

    #[test]
    fn cookie_policy_defaults_acl_to_ring() {
        let parsed: CookiePolicy = "name=sid; ring=2".parse().unwrap();
        assert_eq!(parsed.ring, Ring::new(2));
        assert_eq!(parsed.acl, Acl::uniform(Ring::new(2)));
    }

    #[test]
    fn cookie_policy_acl_cannot_be_looser_than_ring() {
        let parsed: CookiePolicy = "name=sid; ring=1; r=5; w=5; x=5".parse().unwrap();
        assert_eq!(parsed.acl, Acl::uniform(Ring::new(1)));
    }

    #[test]
    fn cookie_policy_wildcard_matches_everything() {
        let policy: CookiePolicy = "name=*; ring=0".parse().unwrap();
        assert!(policy.applies_to("anything"));
        let named: CookiePolicy = "name=sid; ring=0".parse().unwrap();
        assert!(named.applies_to("sid"));
        assert!(!named.applies_to("other"));
    }

    #[test]
    fn cookie_policy_requires_a_name() {
        assert!("ring=1".parse::<CookiePolicy>().is_err());
        assert!("".parse::<CookiePolicy>().is_err());
        assert!("name".parse::<CookiePolicy>().is_err());
    }

    #[test]
    fn api_policy_roundtrip_and_aliases() {
        let policy = ApiPolicy::new(NativeApi::XmlHttpRequest, Ring::new(1));
        let parsed: ApiPolicy = policy.to_header_value().parse().unwrap();
        assert_eq!(parsed, policy);
        let parsed: ApiPolicy = "api=xhr; ring=2".parse().unwrap();
        assert_eq!(parsed.api, NativeApi::XmlHttpRequest);
        assert_eq!(parsed.ring, Ring::new(2));
        assert!("api=telepathy; ring=0".parse::<ApiPolicy>().is_err());
        assert!("ring=0".parse::<ApiPolicy>().is_err());
    }

    #[test]
    fn api_policy_defaults_to_ring_zero() {
        let parsed: ApiPolicy = "api=dom".parse().unwrap();
        assert_eq!(parsed.ring, Ring::INNERMOST);
    }

    #[test]
    fn ac_attribute_parser_never_panics() {
        let names = ["ring", "r", "w", "x", "nonce", "zzz", "", "RING"];
        let values = [
            "",
            "0",
            "3",
            "-1",
            "abc",
            "65536",
            "  2  ",
            "\u{0}",
            "1.5",
            "🦀",
            "9999999999",
        ];
        for name in names {
            for value in values {
                let _ = AcAttributes::parse([(name, value)]);
                let _ = AcAttributes::parse([(name, value), ("ring", "2"), (name, value)]);
            }
        }
        let _ = AcAttributes::parse(std::iter::empty::<(&str, &str)>());
    }

    #[test]
    fn cookie_policy_roundtrips_for_valid_inputs() {
        let names = [
            "sid",
            "phpbb2mysql_sid",
            "_x",
            "A9",
            "name_with_underscores",
        ];
        for name in names {
            for ring in 0u16..10 {
                for acl_base in 0u16..10 {
                    let policy = CookiePolicy::new(name, Ring::new(ring)).with_acl(Acl::new(
                        Ring::new(acl_base),
                        Ring::new((acl_base + 3) % 10),
                        Ring::new((acl_base + 7) % 10),
                    ));
                    let parsed: CookiePolicy = policy.to_header_value().parse().unwrap();
                    assert_eq!(parsed, policy);
                }
            }
        }
    }

    #[test]
    fn resolve_never_escapes_the_parent_ring() {
        let options =
            |limit: u16| std::iter::once(None).chain((0..limit).map(|v| Some(Ring::new(v))));
        for parent in 0u16..20 {
            for ring in options(20) {
                for read in options(20) {
                    let attrs = AcAttributes {
                        ring,
                        read,
                        write: None,
                        use_: None,
                        nonce: None,
                    };
                    let resolved = attrs.resolve(Ring::new(parent));
                    assert!(Ring::new(parent).is_at_least_as_privileged_as(resolved.ring));
                    for op in Operation::ALL {
                        assert!(
                            resolved
                                .acl
                                .bound(op)
                                .is_at_least_as_privileged_as(resolved.ring)
                                || resolved.acl.bound(op) == resolved.ring
                        );
                    }
                }
            }
        }
    }
}

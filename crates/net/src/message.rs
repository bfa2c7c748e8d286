//! HTTP requests and responses.

use std::fmt;
use std::str::FromStr;

use escudo_core::config::{ApiPolicy, CookiePolicy, API_POLICY_HEADER, COOKIE_POLICY_HEADER};

use crate::cookie::SetCookie;
use crate::error::NetError;
use crate::headers::Headers;
use crate::url::{parse_query, Url};

/// The HTTP request methods the applications in this repo use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD`
    Head,
}

impl Method {
    /// The canonical upper-case name.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "HEAD" => Ok(Method::Head),
            other => Err(NetError::InvalidMethod(other.to_string())),
        }
    }
}

/// An HTTP status code (only the handful the in-memory applications emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 302 Found (redirect).
    pub const FOUND: StatusCode = StatusCode(302);
    /// 303 See Other.
    pub const SEE_OTHER: StatusCode = StatusCode(303);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);

    /// `true` for 2xx codes.
    #[must_use]
    pub const fn is_success(self) -> bool {
        self.0 >= 200 && self.0 < 300
    }

    /// `true` for 3xx codes.
    #[must_use]
    pub const fn is_redirect(self) -> bool {
        self.0 >= 300 && self.0 < 400
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An HTTP request as issued by the browser (or forged by an attacker page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The absolute request URL.
    pub url: Url,
    /// Request headers (including `Cookie` when the browser attached cookies).
    pub headers: Headers,
    /// The request body (form-encoded for POSTs in this repo).
    pub body: String,
}

impl Request {
    /// Creates a request with no headers and an empty body.
    #[must_use]
    pub fn new(method: Method, url: Url) -> Self {
        Request {
            method,
            url,
            headers: Headers::new(),
            body: String::new(),
        }
    }

    /// Convenience constructor for a GET request to a URL string.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidUrl`] when the URL cannot be parsed.
    pub fn get(url: &str) -> Result<Self, NetError> {
        Ok(Request::new(Method::Get, Url::parse(url)?))
    }

    /// Convenience constructor for a form POST.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidUrl`] when the URL cannot be parsed.
    pub fn post_form(url: &str, form: &[(&str, &str)]) -> Result<Self, NetError> {
        let mut req = Request::new(Method::Post, Url::parse(url)?);
        req.body = form
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}={}",
                    crate::url::percent_encode(k),
                    crate::url::percent_encode(v)
                )
            })
            .collect::<Vec<_>>()
            .join("&");
        req.headers
            .set("Content-Type", "application/x-www-form-urlencoded");
        Ok(req)
    }

    /// Sets a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.set(name, value);
        self
    }

    /// The form fields of a POST body (or the query parameters of a GET), decoded.
    #[must_use]
    pub fn form_params(&self) -> Vec<(String, String)> {
        match self.method {
            Method::Post => parse_query(&self.body),
            _ => self.url.query_params(),
        }
    }

    /// Looks up a form/query parameter by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<String> {
        self.form_params()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .or_else(|| self.url.query_param(name))
    }

    /// The names of the cookies attached to this request (parsed from the `Cookie`
    /// header). The CSRF experiments use this to check whether a session cookie rode
    /// along with a forged request.
    #[must_use]
    pub fn cookie_names(&self) -> Vec<String> {
        self.cookie_pairs()
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// The cookies attached to this request as `(name, value)` pairs.
    #[must_use]
    pub fn cookies(&self) -> Vec<(String, String)> {
        self.cookie_pairs()
            .map(|(name, value)| (name.to_string(), value.to_string()))
            .collect()
    }

    /// Looks up an attached cookie by name.
    #[must_use]
    pub fn cookie(&self, name: &str) -> Option<String> {
        self.cookie_pairs()
            .find(|(n, _)| *n == name)
            .map(|(_, value)| value.to_string())
    }

    /// The `(name, value)` pairs of the `Cookie` header, borrowed from it:
    /// the one parse behind the owning accessors, which the request log also
    /// reads without allocating.
    pub(crate) fn cookie_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers
            .get("Cookie")
            .into_iter()
            .flat_map(|header| header.split(';'))
            .filter_map(|pair| {
                let (name, value) = pair.trim().split_once('=')?;
                Some((name.trim(), value.trim()))
            })
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.method, self.url)
    }
}

/// An HTTP response as produced by one of the in-memory servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: StatusCode,
    /// Response headers (`Set-Cookie`, the ESCUDO policy headers, `Location`, …).
    pub headers: Headers,
    /// The response body (HTML for pages, plain text for API endpoints).
    pub body: String,
}

impl Response {
    /// A `200 OK` response with an HTML body.
    #[must_use]
    pub fn ok_html(body: impl Into<String>) -> Self {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/html; charset=utf-8");
        Response {
            status: StatusCode::OK,
            headers,
            body: body.into(),
        }
    }

    /// A `200 OK` response with a plain-text body (API endpoints).
    #[must_use]
    pub fn ok_text(body: impl Into<String>) -> Self {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/plain; charset=utf-8");
        Response {
            status: StatusCode::OK,
            headers,
            body: body.into(),
        }
    }

    /// A redirect to `location`.
    #[must_use]
    pub fn redirect(location: &str) -> Self {
        let mut headers = Headers::new();
        headers.set("Location", location);
        Response {
            status: StatusCode::SEE_OTHER,
            headers,
            body: String::new(),
        }
    }

    /// An error response with the given status and plain-text body.
    #[must_use]
    pub fn error(status: StatusCode, message: impl Into<String>) -> Self {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/plain; charset=utf-8");
        Response {
            status,
            headers,
            body: message.into(),
        }
    }

    /// Declares the response cacheable for `seconds` via `Cache-Control: max-age`
    /// (builder style). The shared response cache only stores responses that opt
    /// in explicitly, so static assets use this to become cache-eligible.
    #[must_use]
    pub fn with_max_age(mut self, seconds: u64) -> Self {
        self.headers
            .set("Cache-Control", format!("max-age={seconds}"));
        self
    }

    /// Adds a `Set-Cookie` header (builder style).
    #[must_use]
    pub fn with_cookie(mut self, cookie: SetCookie) -> Self {
        self.headers.append("Set-Cookie", cookie.to_header_value());
        self
    }

    /// Adds an ESCUDO cookie-policy header (builder style).
    #[must_use]
    pub fn with_cookie_policy(mut self, policy: &CookiePolicy) -> Self {
        self.headers
            .append(COOKIE_POLICY_HEADER, policy.to_header_value());
        self
    }

    /// Adds an ESCUDO API-policy header (builder style).
    #[must_use]
    pub fn with_api_policy(mut self, policy: &ApiPolicy) -> Self {
        self.headers
            .append(API_POLICY_HEADER, policy.to_header_value());
        self
    }

    /// All `Set-Cookie` directives carried by this response.
    #[must_use]
    pub fn set_cookies(&self) -> Vec<SetCookie> {
        self.headers
            .get_all("Set-Cookie")
            .into_iter()
            .filter_map(|value| SetCookie::parse(value).ok())
            .collect()
    }

    /// All ESCUDO cookie policies carried by this response. Malformed policy headers
    /// are skipped (a real browser must not crash on a bad header; the fail-safe
    /// default then applies to the affected cookie).
    #[must_use]
    pub fn cookie_policies(&self) -> Vec<CookiePolicy> {
        self.headers
            .get_all(COOKIE_POLICY_HEADER)
            .into_iter()
            .filter_map(|value| value.parse().ok())
            .collect()
    }

    /// All ESCUDO API policies carried by this response.
    #[must_use]
    pub fn api_policies(&self) -> Vec<ApiPolicy> {
        self.headers
            .get_all(API_POLICY_HEADER)
            .into_iter()
            .filter_map(|value| value.parse().ok())
            .collect()
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HTTP {} ({} bytes)", self.status, self.body.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_core::config::NativeApi;
    use escudo_core::Ring;

    #[test]
    fn method_parsing_is_case_insensitive() {
        assert_eq!("get".parse::<Method>().unwrap(), Method::Get);
        assert_eq!("POST".parse::<Method>().unwrap(), Method::Post);
        assert!("DELETE".parse::<Method>().is_err());
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::OK.is_redirect());
        assert!(StatusCode::SEE_OTHER.is_redirect());
        assert!(!StatusCode::FORBIDDEN.is_success());
    }

    #[test]
    fn post_form_encodes_the_body() {
        let req = Request::post_form(
            "http://forum.example/posting.php",
            &[("subject", "hello world"), ("message", "a&b")],
        )
        .unwrap();
        assert_eq!(req.body, "subject=hello+world&message=a%26b");
        assert_eq!(req.param("subject").as_deref(), Some("hello world"));
        assert_eq!(req.param("message").as_deref(), Some("a&b"));
    }

    #[test]
    fn get_params_come_from_the_query_string() {
        let req = Request::get("http://cal.example/index.php?action=add&day=3").unwrap();
        assert_eq!(req.param("action").as_deref(), Some("add"));
        assert_eq!(req.param("day").as_deref(), Some("3"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn cookie_header_parsing() {
        let req = Request::get("http://forum.example/")
            .unwrap()
            .with_header("Cookie", "sid=abc123; data=xyz");
        assert_eq!(req.cookie_names(), vec!["sid", "data"]);
        assert_eq!(req.cookie("sid").as_deref(), Some("abc123"));
        assert_eq!(req.cookie("nope"), None);
    }

    #[test]
    fn request_without_cookie_header_has_no_cookies() {
        let req = Request::get("http://forum.example/").unwrap();
        assert!(req.cookies().is_empty());
    }

    #[test]
    fn response_builders_set_expected_headers() {
        let resp = Response::ok_html("<html></html>");
        assert!(resp
            .headers
            .get("Content-Type")
            .unwrap()
            .contains("text/html"));
        let resp = Response::redirect("/index.php");
        assert_eq!(resp.status, StatusCode::SEE_OTHER);
        assert_eq!(resp.headers.get("Location"), Some("/index.php"));
    }

    #[test]
    fn escudo_policy_headers_roundtrip_through_a_response() {
        let cookie_policy = CookiePolicy::new("sid", Ring::new(1));
        let api_policy = ApiPolicy::new(NativeApi::XmlHttpRequest, Ring::new(1));
        let resp = Response::ok_html("<html></html>")
            .with_cookie(SetCookie::new("sid", "abc"))
            .with_cookie_policy(&cookie_policy)
            .with_api_policy(&api_policy);
        assert_eq!(resp.set_cookies().len(), 1);
        assert_eq!(resp.cookie_policies(), vec![cookie_policy]);
        assert_eq!(resp.api_policies(), vec![api_policy]);
    }

    #[test]
    fn malformed_policy_headers_are_skipped_not_fatal() {
        let mut resp = Response::ok_html("x");
        resp.headers.append(COOKIE_POLICY_HEADER, "ring=1"); // missing name
        resp.headers.append(API_POLICY_HEADER, "api=telepathy");
        assert!(resp.cookie_policies().is_empty());
        assert!(resp.api_policies().is_empty());
    }
}

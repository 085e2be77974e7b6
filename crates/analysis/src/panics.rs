//! Panic-path lint: forbid `unwrap()` / `expect()` / panicking macros /
//! slice indexing in non-test code of the configured scan set, governed
//! by `analysis/panic_waivers.toml`. Every waiver carries a
//! justification and an exact expected count, so the file is a
//! burn-down list: removing a panic site without removing its waiver
//! fails the lint just like adding one without a waiver.

use std::path::Path;

use crate::config;
use crate::model::{tokenize, SourceFile, Tok};
use crate::report::{Finding, Pass};

pub const WAIVERS_PATH: &str = "analysis/panic_waivers.toml";

/// Waiver-file entries over the default budget fail the lint; the
/// burn-down list must shrink, not grow.
pub const DEFAULT_BUDGET: usize = 40;

#[derive(Clone, Debug)]
pub struct Waiver {
    pub file: String,
    /// Substring matched against the raw text of the finding's line.
    pub contains: String,
    /// Exact number of sites this waiver is expected to match.
    pub count: usize,
    pub justification: String,
}

#[derive(Clone, Debug)]
pub struct PanicWaivers {
    pub scan: Vec<String>,
    pub budget: usize,
    pub waivers: Vec<Waiver>,
}

impl PanicWaivers {
    pub fn load(root: &Path) -> Result<PanicWaivers, String> {
        let path = root.join(WAIVERS_PATH);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = config::parse(&text).map_err(|e| format!("{WAIVERS_PATH}: {e}"))?;
        let mut waivers = Vec::new();
        for entry in doc.array("waiver") {
            waivers.push(Waiver {
                file: entry
                    .get_str("file")
                    .ok_or_else(|| format!("{WAIVERS_PATH}: [[waiver]] missing `file`"))?
                    .to_string(),
                contains: entry
                    .get_str("contains")
                    .ok_or_else(|| format!("{WAIVERS_PATH}: [[waiver]] missing `contains`"))?
                    .to_string(),
                count: entry.get_int("count").unwrap_or(1).max(0) as usize,
                justification: entry.get_str("justification").unwrap_or("").to_string(),
            });
        }
        Ok(PanicWaivers {
            scan: doc
                .root
                .get_list("scan")
                .map(|l| l.to_vec())
                .unwrap_or_default(),
            budget: doc
                .root
                .get_int("budget")
                .map(|b| b.max(0) as usize)
                .unwrap_or(DEFAULT_BUDGET),
            waivers,
        })
    }
}

/// A detected panic-capable site.
#[derive(Clone, Debug)]
struct PanicSite {
    file: String,
    line: usize,
    what: String,
}

/// Run the panic-path pass over the parsed scan set.
pub fn run(waivers: &PanicWaivers, files: &[SourceFile]) -> Vec<Finding> {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

    let mut sites: Vec<PanicSite> = Vec::new();
    for file in files {
        let tokens = tokenize(&file.scrubbed);
        for (i, t) in tokens.iter().enumerate() {
            if file.in_test_code(t.off) {
                continue;
            }
            let next_is = |k: usize, b: u8| tokens.get(i + k).is_some_and(|t| t.is_punct(b));
            match &t.tok {
                Tok::Ident(id)
                    if (id == "unwrap" || id == "expect")
                        && i > 0
                        && tokens[i - 1].is_punct(b'.')
                        && next_is(1, b'(') =>
                {
                    sites.push(PanicSite {
                        file: file.path.clone(),
                        line: file.line_of(t.off),
                        what: format!(".{id}()"),
                    });
                }
                Tok::Ident(id) if PANIC_MACROS.contains(&id.as_str()) && next_is(1, b'!') => {
                    sites.push(PanicSite {
                        file: file.path.clone(),
                        line: file.line_of(t.off),
                        what: format!("{id}!"),
                    });
                }
                Tok::Punct(b'[') if i > 0 => {
                    // Indexing: `expr[`. The previous token is an ident,
                    // `)` or `]`; attributes (`#[`), macros (`vec![`),
                    // literals (`= [`) and type positions all fail this.
                    // A lifetime (`&'static [T]`) is an ident after `'`.
                    let after_lifetime = i > 1 && tokens[i - 2].is_punct(b'\'');
                    let indexing = match &tokens[i - 1].tok {
                        Tok::Ident(id) => {
                            !after_lifetime
                                && !matches!(
                                    id.as_str(),
                                    // Type/keyword positions that precede
                                    // array types, slice patterns or
                                    // literals rather than index
                                    // expressions.
                                    "mut" | "dyn" | "in" | "as" | "return" | "box" | "else" | "let"
                                )
                        }
                        Tok::Punct(b')') | Tok::Punct(b']') => true,
                        _ => false,
                    };
                    if indexing {
                        sites.push(PanicSite {
                            file: file.path.clone(),
                            line: file.line_of(t.off),
                            what: "slice index".to_string(),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    let mut findings = Vec::new();

    if waivers.waivers.len() > waivers.budget {
        findings.push(Finding::new(
            Pass::Panics,
            WAIVERS_PATH,
            0,
            format!(
                "waiver budget exceeded: {} entries, budget {} — burn sites down, don't add more",
                waivers.waivers.len(),
                waivers.budget
            ),
        ));
    }

    let mut match_counts = vec![0usize; waivers.waivers.len()];
    'site: for site in &sites {
        let file = files
            .iter()
            .find(|f| f.path == site.file)
            .expect("site from files");
        let line_text = file.line_text(site.line);
        for (w_idx, w) in waivers.waivers.iter().enumerate() {
            if w.file == site.file && line_text.contains(&w.contains) {
                match_counts[w_idx] += 1;
                continue 'site;
            }
        }
        findings.push(Finding::new(
            Pass::Panics,
            site.file.clone(),
            site.line,
            format!(
                "{} in non-test code without a waiver (add the fix, or a justified \
                 entry in {WAIVERS_PATH})",
                site.what
            ),
        ));
    }

    for (w, matched) in waivers.waivers.iter().zip(&match_counts) {
        if w.justification.trim().is_empty() {
            findings.push(Finding::new(
                Pass::Panics,
                WAIVERS_PATH,
                0,
                format!(
                    "waiver for {} (`{}`) has no justification",
                    w.file, w.contains
                ),
            ));
        }
        if *matched == 0 {
            findings.push(Finding::new(
                Pass::Panics,
                WAIVERS_PATH,
                0,
                format!(
                    "stale waiver: {} (`{}`) matched no panic site — delete it",
                    w.file, w.contains
                ),
            ));
        } else if *matched != w.count {
            findings.push(Finding::new(
                Pass::Panics,
                WAIVERS_PATH,
                0,
                format!(
                    "waiver for {} (`{}`) expects {} site(s) but matched {} — update `count`",
                    w.file, w.contains, w.count, matched
                ),
            ));
        }
    }

    findings.sort_by(|x, y| (&x.file, x.line, &x.message).cmp(&(&y.file, y.line, &y.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn waivers(entries: Vec<Waiver>) -> PanicWaivers {
        PanicWaivers {
            scan: vec![],
            budget: DEFAULT_BUDGET,
            waivers: entries,
        }
    }

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("x.rs".into(), src.into())
    }

    #[test]
    fn unwaived_unwrap_and_expect_are_flagged() {
        let f = parse("fn f() { a.unwrap(); b.expect(\"m\"); c.unwrap_or(0); }");
        let findings = run(&waivers(vec![]), &[f]);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings.iter().any(|f| f.message.contains(".unwrap()")));
        assert!(findings.iter().any(|f| f.message.contains(".expect()")));
    }

    #[test]
    fn panic_macros_are_flagged_but_not_in_tests() {
        let f = parse(
            "fn f() { panic!(\"boom\"); }\n\
             #[cfg(test)]\nmod tests { fn t() { panic!(\"ok in tests\"); unreachable!() } }",
        );
        let findings = run(&waivers(vec![]), &[f]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn slice_index_heuristic() {
        let f = parse(
            "fn f(v: &[u8], m: &Map) -> u8 {\n\
               let a = v[0];\n\
               let b = &m.items[key];\n\
               let c: [u8; 4] = [0; 4];\n\
               let d = vec![1, 2];\n\
               a\n\
             }\n\
             #[derive(Clone)]\nstruct S { x: u8 }",
        );
        let findings = run(&waivers(vec![]), &[f]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{findings:#?}");
    }

    #[test]
    fn a_lifetime_before_a_slice_type_is_not_an_index() {
        let f = parse("pub fn all() -> &'static [Kind] {\n    &[Kind::A]\n}");
        let findings = run(&waivers(vec![]), &[f]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn a_let_slice_pattern_is_not_an_index() {
        let f = parse("fn f(v: [u8; 2]) -> u8 {\n    let [a, b] = v;\n    a + b\n}");
        let findings = run(&waivers(vec![]), &[f]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn an_index_beside_a_lifetime_and_a_let_is_still_flagged() {
        let f = parse("fn f<'a>(v: &'a [u8]) -> u8 {\n    let [a] = [v[0]];\n    a\n}");
        let findings = run(&waivers(vec![]), &[f]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2], "{findings:#?}");
    }

    #[test]
    fn waived_site_passes_and_counts_are_exact() {
        let f = parse("fn f() { x.expect(\"serialize infallibly\"); }");
        let ok = run(
            &waivers(vec![Waiver {
                file: "x.rs".into(),
                contains: "serialize infallibly".into(),
                count: 1,
                justification: "writer is a Vec, cannot fail".into(),
            }]),
            &[f],
        );
        assert!(ok.is_empty(), "{ok:#?}");

        let f = parse("fn f() { x.expect(\"serialize infallibly\"); }");
        let wrong_count = run(
            &waivers(vec![Waiver {
                file: "x.rs".into(),
                contains: "serialize infallibly".into(),
                count: 2,
                justification: "ok".into(),
            }]),
            &[f],
        );
        assert!(
            wrong_count
                .iter()
                .any(|f| f.message.contains("update `count`")),
            "{wrong_count:#?}"
        );
    }

    #[test]
    fn unjustified_and_stale_waivers_fail() {
        let f = parse("fn f() { x.unwrap(); }");
        let findings = run(
            &waivers(vec![
                Waiver {
                    file: "x.rs".into(),
                    contains: "x.unwrap()".into(),
                    count: 1,
                    justification: "  ".into(),
                },
                Waiver {
                    file: "x.rs".into(),
                    contains: "no such line".into(),
                    count: 1,
                    justification: "fine".into(),
                },
            ]),
            &[f],
        );
        assert!(findings
            .iter()
            .any(|f| f.message.contains("no justification")));
        assert!(findings.iter().any(|f| f.message.contains("stale waiver")));
    }

    #[test]
    fn budget_overflow_fails() {
        let f = parse("fn f() {}");
        let mut entries = Vec::new();
        for i in 0..=DEFAULT_BUDGET {
            entries.push(Waiver {
                file: "x.rs".into(),
                contains: format!("site {i}"),
                count: 1,
                justification: "j".into(),
            });
        }
        let findings = run(&waivers(entries), &[f]);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("waiver budget exceeded")),
            "{findings:#?}"
        );
    }
}

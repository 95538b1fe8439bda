//! The line-oriented text form of a [`Platform`]: [`Platform::parse`]
//! reads it and [`Platform::to_text`] writes it.
//!
//! Rather than pulling a serialization framework, platforms are stored
//! in a human-editable format:
//!
//! ```text
//! # comments start with '#'
//! chain
//! 2 3     # c_1 w_1
//! 3 5     # c_2 w_2
//! ```
//!
//! ```text
//! spider
//! leg 2 3  3 5      # one leg per line: c_1 w_1  c_2 w_2 ...
//! leg 1 4
//! ```
//!
//! ```text
//! tree
//! node 0 1 2        # parent c w (ids assigned 1.. in file order)
//! node 1 2 3
//! ```
//!
//! Forks are written as `fork` followed by `c w` lines, like chains.

use crate::platform::Platform;
use mst_platform::{PlatformError, Processor, Spider, Time};
use std::fmt;

impl Platform {
    /// Parses a platform from its text form (see [`crate::format`]).
    ///
    /// ```
    /// use mst_api::Platform;
    /// let platform = Platform::parse("chain\n2 3\n3 5\n").unwrap();
    /// assert_eq!(platform.as_chain().unwrap().len(), 2);
    /// ```
    pub fn parse(text: &str) -> Result<Platform, PlatformError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, strip_comment(l).trim()))
            .filter(|(_, l)| !l.is_empty());

        let (header_line, header) = lines.next().ok_or_else(|| parse_err(1, "empty instance"))?;
        match header {
            "chain" | "fork" => {
                let mut pairs = Vec::new();
                for (no, line) in lines {
                    let tokens: Vec<&str> = line.split_whitespace().collect();
                    let values = parse_times(&tokens, no)?;
                    if values.len() != 2 {
                        return Err(parse_err(no, "expected exactly `c w`"));
                    }
                    pairs.push((values[0], values[1]));
                }
                if header == "chain" {
                    Platform::chain(&pairs)
                } else {
                    Platform::fork(&pairs)
                }
            }
            "spider" => {
                let mut legs: Vec<Vec<(Time, Time)>> = Vec::new();
                for (no, line) in lines {
                    let tokens: Vec<&str> = line.split_whitespace().collect();
                    match tokens.split_first() {
                        Some((&"leg", rest)) => {
                            let values = parse_times(rest, no)?;
                            if values.is_empty() || values.len() % 2 != 0 {
                                return Err(parse_err(no, "leg needs pairs `c w  c w ...`"));
                            }
                            legs.push(values.chunks(2).map(|cw| (cw[0], cw[1])).collect());
                        }
                        _ => return Err(parse_err(no, "expected `leg c w ...`")),
                    }
                }
                let refs: Vec<&[(Time, Time)]> = legs.iter().map(Vec::as_slice).collect();
                Platform::spider(&refs)
            }
            "tree" => {
                let mut triples = Vec::new();
                for (no, line) in lines {
                    let tokens: Vec<&str> = line.split_whitespace().collect();
                    match tokens.split_first() {
                        Some((&"node", rest)) if rest.len() == 3 => {
                            let parent: usize =
                                rest[0].parse().map_err(|_| parse_err(no, "bad parent id"))?;
                            let values = parse_times(&rest[1..], no)?;
                            triples.push((parent, values[0], values[1]));
                        }
                        _ => return Err(parse_err(no, "expected `node parent c w`")),
                    }
                }
                Platform::tree(&triples)
            }
            other => Err(parse_err(header_line, format!("unknown topology {other:?}"))),
        }
    }

    /// The platform's text form; it round-trips through
    /// [`Platform::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // Writing to a String cannot fail.
        let _ = self.write_text(&mut out);
        out
    }

    /// Writes [`Platform::to_text`]'s bytes to `out`, so a caller that
    /// only digests them builds no `String`.
    pub(crate) fn write_text(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Platform::Chain(chain) => write_pairs(out, "chain", chain.processors()),
            Platform::Fork(fork) => write_pairs(out, "fork", fork.slaves()),
            Platform::Spider(spider) => write_spider(out, spider),
            Platform::Tree(tree) => {
                out.write_str("tree\n")?;
                for n in tree.nodes() {
                    writeln!(out, "node {} {} {}", n.parent, n.comm, n.work)?;
                }
                Ok(())
            }
        }
    }
}

/// A chain's or a fork's text form: the header, then one `c w` line per
/// processor.
fn write_pairs(out: &mut impl fmt::Write, header: &str, processors: &[Processor]) -> fmt::Result {
    writeln!(out, "{header}")?;
    for p in processors {
        writeln!(out, "{} {}", p.comm, p.work)?;
    }
    Ok(())
}

/// A spider's text form, as [`Platform::to_text`] writes it; a tree
/// solution's spider cover is printed with it.
pub(crate) fn spider_text(spider: &Spider) -> String {
    let mut out = String::new();
    // Writing to a String cannot fail.
    let _ = write_spider(&mut out, spider);
    out
}

fn write_spider(out: &mut impl fmt::Write, spider: &Spider) -> fmt::Result {
    out.write_str("spider\n")?;
    for leg in spider.legs() {
        out.write_str("leg")?;
        for p in leg.processors() {
            write!(out, " {} {}", p.comm, p.work)?;
        }
        out.write_char('\n')?;
    }
    Ok(())
}

fn parse_err(line: usize, message: impl Into<String>) -> PlatformError {
    PlatformError::Parse { line, message: message.into() }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn parse_times(tokens: &[&str], line_no: usize) -> Result<Vec<Time>, PlatformError> {
    tokens
        .iter()
        .map(|t| {
            t.parse::<Time>()
                .map_err(|_| parse_err(line_no, format!("expected an integer, found {t:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::{Chain, Fork, GeneratorConfig, HeterogeneityProfile, Tree};

    #[test]
    fn chain_round_trip() {
        let platform = Platform::Chain(Chain::paper_figure2());
        let text = platform.to_text();
        assert_eq!(Platform::parse(&text).unwrap(), platform);
    }

    #[test]
    fn fork_round_trip() {
        let platform = Platform::Fork(Fork::from_pairs(&[(1, 2), (3, 4), (5, 6)]).unwrap());
        assert_eq!(Platform::parse(&platform.to_text()).unwrap(), platform);
    }

    #[test]
    fn spider_round_trip() {
        let spider = Spider::from_legs(&[&[(2, 3), (3, 5)], &[(1, 4)]]).unwrap();
        let platform = Platform::Spider(spider);
        assert_eq!(Platform::parse(&platform.to_text()).unwrap(), platform);
    }

    #[test]
    fn tree_round_trip() {
        let tree = Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 3, 4)]).unwrap();
        let platform = Platform::Tree(tree);
        assert_eq!(Platform::parse(&platform.to_text()).unwrap(), platform);
    }

    #[test]
    fn random_instances_round_trip() {
        for seed in 0..20 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[seed as usize % 5], seed);
            for platform in [
                Platform::Chain(g.chain(6)),
                Platform::Fork(g.fork(5)),
                Platform::Spider(g.spider(3, 1, 3)),
                Platform::Tree(g.tree(7)),
            ] {
                assert_eq!(Platform::parse(&platform.to_text()).unwrap(), platform, "seed {seed}");
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a chain\nchain\n\n2 3   # first\n3 5\n";
        assert_eq!(Platform::parse(text).unwrap(), Platform::Chain(Chain::paper_figure2()));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        match Platform::parse("chain\n2\n") {
            Err(PlatformError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(Platform::parse("").is_err());
        assert!(Platform::parse("pentagon\n1 2\n").is_err());
        assert!(Platform::parse("spider\nleg 1\n").is_err());
        assert!(Platform::parse("tree\nnode 0 1\n").is_err());
        assert!(Platform::parse("chain\nx y\n").is_err());
    }
}

//! TSV import/export of knowledge graphs.
//!
//! Format: one triple per line, `head<TAB>relation<TAB>tail`, names as
//! opaque strings. This is the de-facto interchange format of the TransE
//! family of embedding code bases (FB15k, WN18 etc. ship this way), so a
//! graph prepared elsewhere — including one whose embeddings were trained
//! externally — can be loaded directly.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::error::{KgError, Result};
use crate::graph::{KnowledgeGraph, Triple};

/// Reads a graph from TSV triples.
///
/// Blank lines and lines starting with `#` are skipped. Each remaining
/// line must have exactly three tab-separated fields. Names are interned
/// line by line; the facts go into the graph in one bulk load
/// ([`KnowledgeGraph::extend_triples`]) once the input is read.
pub fn read_tsv<R: Read>(reader: R) -> Result<KnowledgeGraph> {
    let mut graph = KnowledgeGraph::new();
    let mut triples = Vec::new();
    let buf = BufReader::new(reader);
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split('\t');
        let (h, r, t) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(h), Some(r), Some(t), None) => (h, r, t),
            _ => {
                return Err(KgError::Parse {
                    line: lineno + 1,
                    message: format!("expected 3 tab-separated fields, got {trimmed:?}"),
                })
            }
        };
        triples.push(Triple {
            head: graph.add_entity(h),
            relation: graph.add_relation(r),
            tail: graph.add_entity(t),
        });
    }
    graph.extend_triples(&triples)?;
    Ok(graph)
}

/// Writes all triples of `graph` as TSV.
pub fn write_tsv<W: Write>(graph: &KnowledgeGraph, writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    for t in graph.triples() {
        let head = graph
            .entity_name(t.head)
            .ok_or(KgError::UnknownEntity(t.head.0))?;
        let rel = graph
            .relation_name(t.relation)
            .ok_or(KgError::UnknownRelation(t.relation.0))?;
        let tail = graph
            .entity_name(t.tail)
            .ok_or(KgError::UnknownEntity(t.tail.0))?;
        writeln!(out, "{head}\t{rel}\t{tail}")?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_triples() {
        let mut g = KnowledgeGraph::new();
        g.add_fact("amy", "likes", "m1").unwrap();
        g.add_fact("bob", "dislikes", "m2").unwrap();
        g.add_fact("m1", "has_genre", "horror").unwrap();

        let mut bytes = Vec::new();
        write_tsv(&g, &mut bytes).unwrap();
        let g2 = read_tsv(bytes.as_slice()).unwrap();

        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.num_entities(), g.num_entities());
        assert_eq!(g2.num_relations(), g.num_relations());
        let amy = g2.entity_id("amy").unwrap();
        let likes = g2.relation_id("likes").unwrap();
        let m1 = g2.entity_id("m1").unwrap();
        assert!(g2.has_edge(amy, likes, m1));

        // A masked fact stays masked through the round trip.
        let t = g.triples()[1];
        assert!(g.remove_triple(t.head, t.relation, t.tail));
        let mut bytes = Vec::new();
        write_tsv(&g, &mut bytes).unwrap();
        let masked = read_tsv(bytes.as_slice()).unwrap();
        assert_eq!(masked.num_edges(), 2);
        for t in masked.triples() {
            assert_ne!(masked.relation_name(t.relation), Some("dislikes"));
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let input = "# header\n\namy\tlikes\tm1\n   \n";
        let g = read_tsv(input.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn wrong_arity_is_parse_error() {
        let input = "amy\tlikes\n";
        let err = read_tsv(input.as_bytes()).unwrap_err();
        assert!(matches!(err, KgError::Parse { line: 1, .. }));

        let input = "a\tb\tc\td\n";
        let err = read_tsv(input.as_bytes()).unwrap_err();
        assert!(matches!(err, KgError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_error_reports_line_number() {
        let input = "a\tb\tc\nbroken line\n";
        let err = read_tsv(input.as_bytes()).unwrap_err();
        match err {
            KgError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }
}

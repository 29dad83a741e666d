//! Import/export of embedding stores.
//!
//! Two formats:
//!
//! * **TSV** — `kind<TAB>id<TAB>v0 v1 v2 ...` per line, `kind` ∈
//!   `{entity, relation}`. This matches the output of the TransE-family
//!   reference implementations, so embeddings trained externally (the
//!   paper uses the original authors' code) import directly.
//! * **Binary** — a compact little-endian format (`VKGE` magic, version,
//!   shapes, raw `f64` rows), for fast reload of large stores.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use vkg_kg::codec::{Dec, DecodeError, Enc};

use crate::store::EmbeddingStore;

/// Magic bytes of the binary format.
const MAGIC: &[u8; 4] = b"VKGE";
/// Current binary format version.
const VERSION: u8 = 1;
/// Magic, version, and the three `u32` shapes (dim, entities, relations).
const HEADER_LEN: usize = 4 + 1 + 4 * 3;

/// Errors raised by embedding import.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed text input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Malformed binary input.
    Format(String),
    /// Binary input off the layout (truncated, a foreign magic).
    Decode(DecodeError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Format(m) => write!(f, "bad binary format: {m}"),
            IoError::Decode(e) => write!(f, "bad binary format: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<DecodeError> for IoError {
    fn from(e: DecodeError) -> Self {
        IoError::Decode(e)
    }
}

/// An embedding value must be finite: the index sorts by projections of
/// these rows, and a NaN has no place in an order.
fn check_finite(values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("non-finite embedding value {v}")),
        None => Ok(()),
    }
}

/// Writes `store` as TSV.
pub fn write_tsv<W: Write>(store: &EmbeddingStore, writer: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(writer);
    let d = store.dim();
    for (kind, rows) in [
        ("entity", store.entity_rows()),
        ("relation", store.relation_rows()),
    ] {
        for (i, row) in rows.chunks().flat_map(|c| c.chunks_exact(d)).enumerate() {
            write!(out, "{kind}\t{i}\t")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(out, " ")?;
                }
                write!(out, "{v}")?;
            }
            writeln!(out)?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads a TSV embedding dump produced by [`write_tsv`] (or by external
/// TransE-style tooling using the same layout).
///
/// Rows may arrive in any order but ids must be dense (0..n), each once.
/// An id is checked against the number of rows of its kind the file
/// holds before anything is sized by it, so no id can grow memory beyond
/// the file's own size: one past that count is an [`IoError::Parse`] at
/// its line, and so is a repeated id, naming the line it repeats.
pub fn read_tsv<R: Read>(reader: R) -> Result<EmbeddingStore, IoError> {
    let mut dim: Option<usize> = None;
    // `(line, id, row)` in file order, per kind.
    let mut entities: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    let mut relations: Vec<(usize, usize, Vec<f64>)> = Vec::new();

    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split('\t');
        let (kind, id, values) = match (fields.next(), fields.next(), fields.next(), fields.next())
        {
            (Some(k), Some(i), Some(v), None) => (k, i, v),
            _ => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    message: "expected 3 tab-separated fields".into(),
                })
            }
        };
        let id: usize = id.parse().map_err(|_| IoError::Parse {
            line: lineno + 1,
            message: format!("bad id {id:?}"),
        })?;
        let row: Vec<f64> = values
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| IoError::Parse {
                line: lineno + 1,
                message: format!("bad float: {e}"),
            })?;
        check_finite(&row).map_err(|message| IoError::Parse {
            line: lineno + 1,
            message,
        })?;
        match dim {
            None => dim = Some(row.len()),
            Some(d) if d != row.len() => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    message: format!("dimensionality mismatch: expected {d}, got {}", row.len()),
                })
            }
            _ => {}
        }
        let target = match kind {
            "entity" => &mut entities,
            "relation" => &mut relations,
            other => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    message: format!("unknown row kind {other:?}"),
                })
            }
        };
        target.push((lineno + 1, id, row));
    }

    let dim = dim.ok_or(IoError::Format("empty embedding file".into()))?;
    let flatten = |rows: Vec<(usize, usize, Vec<f64>)>, what: &str| -> Result<Vec<f64>, IoError> {
        // Dense ids, each once, are exactly the ids below the row count.
        let count = rows.len();
        let mut table: Vec<Option<(usize, Vec<f64>)>> = vec![None; count];
        for (line, id, row) in rows {
            let slot = table.get_mut(id).ok_or_else(|| IoError::Parse {
                line,
                message: format!("{what} id {id} is past the {count} {what} rows in the file"),
            })?;
            if let Some((first, _)) = slot {
                return Err(IoError::Parse {
                    line,
                    message: format!("{what} id {id} repeats line {first}"),
                });
            }
            *slot = Some((line, row));
        }
        let mut flat = Vec::with_capacity(count * dim);
        for (i, row) in table.into_iter().enumerate() {
            let (_, row) = row.ok_or_else(|| IoError::Format(format!("missing {what} row {i}")))?;
            flat.extend(row);
        }
        Ok(flat)
    };
    Ok(EmbeddingStore::from_raw(
        dim,
        flatten(entities, "entity")?,
        flatten(relations, "relation")?,
    ))
}

/// Serializes `store` into the compact binary format.
pub fn to_binary(store: &EmbeddingStore) -> Vec<u8> {
    let d = store.dim();
    let ents = store.entity_rows();
    let rels = store.relation_rows();
    let mut e = Enc::with_capacity(HEADER_LEN + (ents.len() + rels.len()) * d * 8);
    e.magic(MAGIC);
    e.u8(VERSION);
    for shape in [d, ents.len(), rels.len()] {
        e.count(shape);
    }
    for &v in ents.iter().chain(rels) {
        e.f64(v);
    }
    e.finish()
}

/// Deserializes a store from the binary format.
pub fn from_binary(data: &[u8]) -> Result<EmbeddingStore, IoError> {
    let mut d = Dec::new(data);
    d.magic(MAGIC)?;
    let version = d.u8()?;
    if version != VERSION {
        return Err(IoError::Format(format!("unsupported version {version}")));
    }
    let (dim, n, m) = (d.u32()? as usize, d.u32()? as usize, d.u32()? as usize);
    if dim == 0 {
        return Err(IoError::Format("zero dimensionality".into()));
    }
    // The shapes come from the file: a product that overflows matches no
    // payload, and `items` allocates nothing before the payload holds it.
    let values = n
        .checked_add(m)
        .and_then(|rows| rows.checked_mul(dim))
        .ok_or(DecodeError::Malformed("shapes overflow"))?;
    let mut entities = d.items(values, 8, Dec::f64)?;
    d.finish()?;
    check_finite(&entities).map_err(IoError::Format)?;
    let relations = entities.split_off(n * dim);
    Ok(EmbeddingStore::from_raw(dim, entities, relations))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> EmbeddingStore {
        EmbeddingStore::from_raw(3, vec![1.0, 2.0, 3.0, -1.5, 0.25, 9.0], vec![0.1, 0.2, 0.3])
    }

    /// An id is checked against the rows read before it sizes anything:
    /// `usize::MAX` and an id past the row count are parse errors at
    /// their line, not an overflow or a table as large as the id; a
    /// repeated id is a parse error at its second line.
    #[test]
    fn tsv_ids_past_the_row_count_are_refused() {
        let huge = format!(
            "entity\t0\t1 2\nentity\t{}\t3 4\nrelation\t0\t5 6\n",
            usize::MAX
        );
        match read_tsv(huge.as_bytes()) {
            Err(IoError::Parse { line: 2, message }) => {
                assert!(message.contains("past the 2 entity rows"), "{message}")
            }
            other => panic!("expected a parse error at line 2, got {other:?}"),
        }
        let gap = "relation\t0\t5 6\nentity\t0\t1 2\nentity\t2\t3 4\n";
        match read_tsv(gap.as_bytes()) {
            Err(IoError::Parse { line: 3, message }) => {
                assert!(message.contains("entity id 2"), "{message}")
            }
            other => panic!("expected a parse error at line 3, got {other:?}"),
        }
        // Out of order reads; a repeated id is refused at its second
        // line, naming the first, where it would silently drop a row.
        let shuffled = "entity\t1\t3 4\nentity\t0\t9 9\nentity\t0\t1 2\nrelation\t0\t5 6\n";
        match read_tsv(shuffled.as_bytes()) {
            Err(IoError::Parse { line: 3, message }) => {
                assert!(message.contains("entity id 0 repeats line 2"), "{message}")
            }
            other => panic!("expected a parse error at line 3, got {other:?}"),
        }
        let dense_looking = "entity\t0\t1 2\nentity\t0\t3 4\nentity\t1\t5 6\nentity\t2\t7 8\n";
        match read_tsv(dense_looking.as_bytes()) {
            Err(IoError::Parse { line: 2, message }) => {
                assert!(message.contains("entity id 0 repeats line 1"), "{message}")
            }
            other => panic!("expected a parse error at line 2, got {other:?}"),
        }
        let store = read_tsv("entity\t1\t3 4\nentity\t0\t1 2\nrelation\t0\t5 6\n".as_bytes());
        assert_eq!(
            store.unwrap(),
            EmbeddingStore::from_raw(2, vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0])
        );
    }

    #[test]
    fn tsv_roundtrip() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_tsv(&store, &mut buf).unwrap();
        let back = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back, store);
    }

    /// A store spanning several chunks writes the bytes the flat
    /// row-major matrix spells out, in both formats, and reads back equal.
    #[test]
    fn chunked_store_writes_the_flat_matrix_bytes() {
        let (n, m, d) = (2 * vkg_kg::CHUNK_LEN + 5, 3, 3);
        let ents: Vec<f64> = (0..n * d).map(|i| i as f64 * 0.37 - 11.0).collect();
        let rels: Vec<f64> = (0..m * d).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let store = EmbeddingStore::from_raw(d, ents.clone(), rels.clone());

        let mut binary = b"VKGE\x01".to_vec();
        for shape in [d, n, m] {
            binary.extend_from_slice(&(shape as u32).to_le_bytes());
        }
        for v in ents.iter().chain(&rels) {
            binary.extend_from_slice(&v.to_le_bytes());
        }
        let bytes = to_binary(&store);
        assert_eq!(&bytes[..], &binary[..]);
        assert_eq!(from_binary(&bytes).unwrap(), store);

        let mut tsv = String::new();
        for (kind, flat) in [("entity", &ents), ("relation", &rels)] {
            for (i, row) in flat.chunks_exact(d).enumerate() {
                let cells: Vec<String> = row.iter().map(f64::to_string).collect();
                tsv += &format!("{kind}\t{i}\t{}\n", cells.join(" "));
            }
        }
        let mut written = Vec::new();
        write_tsv(&store, &mut written).unwrap();
        assert_eq!(written, tsv.as_bytes());
        assert_eq!(read_tsv(written.as_slice()).unwrap(), store);
        // Full-precision values print longer than their eight bytes.
        assert!(bytes.len() < written.len(), "binary undercuts TSV");
    }

    #[test]
    fn tsv_rows_in_any_order() {
        let text = "relation\t0\t0.1 0.2\nentity\t1\t3 4\nentity\t0\t1 2\n";
        let store = read_tsv(text.as_bytes()).unwrap();
        assert_eq!(store.dim(), 2);
        assert_eq!(store.entity_rows().to_vec(), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn tsv_missing_row_is_error() {
        let text = "entity\t0\t1 2\nentity\t2\t5 6\n";
        assert!(read_tsv(text.as_bytes()).is_err());
    }

    #[test]
    fn tsv_dim_mismatch_is_error() {
        let text = "entity\t0\t1 2\nentity\t1\t1 2 3\n";
        let err = read_tsv(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("dimensionality mismatch"));
    }

    #[test]
    fn tsv_unknown_kind_is_error() {
        let text = "vector\t0\t1 2\n";
        assert!(read_tsv(text.as_bytes()).is_err());
    }

    /// `str::parse` reads "NaN" and "inf" as floats and any eight bytes
    /// are an `f64`: both importers must refuse them by value.
    #[test]
    fn non_finite_values_are_refused_by_both_formats() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [1, 7] {
                // Value 1 is in an entity row, value 7 in the relation row.
                let mut flat = [0.5; 9];
                flat[at] = bad;
                let text = format!(
                    "entity\t0\t{} {} {}\nentity\t1\t{} {} {}\nrelation\t0\t{} {} {}\n",
                    flat[0], flat[1], flat[2], flat[3], flat[4], flat[5], flat[6], flat[7], flat[8]
                );
                let err = read_tsv(text.as_bytes()).unwrap_err();
                let line = if at == 1 { 1 } else { 3 };
                assert!(
                    matches!(&err, IoError::Parse { line: l, message } if *l == line && message.contains("non-finite")),
                    "{err}"
                );

                let mut bytes = to_binary(&sample_store());
                let offset = HEADER_LEN + at * 8;
                bytes[offset..offset + 8].copy_from_slice(&bad.to_le_bytes());
                let err = from_binary(&bytes).unwrap_err();
                assert!(
                    matches!(&err, IoError::Format(m) if m.contains("non-finite")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn binary_roundtrip() {
        let store = sample_store();
        let bytes = to_binary(&store);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back, store);
    }

    /// The `VKGE` v1 layout, byte for byte: magic, version, then dim,
    /// entity and relation counts as little-endian `u32`s, then every
    /// entity row and every relation row as little-endian `f64`s.
    #[test]
    fn binary_format_golden_bytes() {
        let store = EmbeddingStore::from_raw(2, vec![1.0, -2.0, 0.5, 0.0], vec![3.0, -0.25]);
        #[rustfmt::skip]
        let golden: [u8; 65] = [
            b'V', b'K', b'G', b'E', 1,
            2, 0, 0, 0,  2, 0, 0, 0,  1, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1.0
            0, 0, 0, 0, 0, 0, 0x00, 0xc0, // -2.0
            0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // 0.5
            0, 0, 0, 0, 0, 0, 0x00, 0x00, // 0.0
            0, 0, 0, 0, 0, 0, 0x08, 0x40, // 3.0
            0, 0, 0, 0, 0, 0, 0xd0, 0xbf, // -0.25
        ];
        assert_eq!(to_binary(&store), golden);
        assert_eq!(from_binary(&golden).unwrap(), store);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let store = sample_store();
        let mut bytes = to_binary(&store).to_vec();
        bytes[0] = b'X';
        assert!(from_binary(&bytes).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let store = sample_store();
        let bytes = to_binary(&store);
        assert!(from_binary(&bytes[..bytes.len() - 3]).is_err());
        assert!(from_binary(&bytes[..4]).is_err());
    }

    #[test]
    fn binary_rejects_shapes_whose_product_overflows() {
        let mut bytes = b"VKGE\x01".to_vec();
        bytes.extend_from_slice(&[0xff; 12]);
        assert!(from_binary(&bytes).is_err());
    }

    #[test]
    fn binary_rejects_wrong_version() {
        let store = sample_store();
        let mut bytes = to_binary(&store).to_vec();
        bytes[4] = 99;
        assert!(from_binary(&bytes).is_err());
    }
}

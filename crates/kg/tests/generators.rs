//! Golden digests of the generated graphs.
//!
//! Each digest is FNV-1a over the triple log in insertion order, then
//! every entity's outgoing and incoming list in order, then the dataset's
//! attribute columns. A change to how a graph is built — its adjacency
//! store, a bulk loader, a de-duplication pass — must leave every list,
//! every list's order and every random draw where it was; these values
//! were recorded from the incremental builder and are not to be edited.

use vkg_kg::codec::{fnv1a64, Enc};
use vkg_kg::datasets::{
    amazon_like, freebase_like, movie_like, AmazonConfig, Dataset, FreebaseConfig, MovieConfig,
};
use vkg_kg::io::{read_tsv, write_tsv};
use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph};

fn encode_graph(enc: &mut Enc, graph: &KnowledgeGraph) {
    enc.count(graph.num_entities());
    enc.count(graph.num_relations());
    enc.count(graph.num_edges());
    for t in graph.triples() {
        enc.u32(t.head.0);
        enc.u32(t.relation.0);
        enc.u32(t.tail.0);
    }
    for e in (0..graph.num_entities() as u32).map(EntityId) {
        for list in [graph.out_edges(e), graph.in_edges(e)] {
            enc.seq(list, |enc, &(r, other)| {
                enc.u32(r.0);
                enc.u32(other.0);
            });
        }
    }
}

fn graph_digest(graph: &KnowledgeGraph) -> u64 {
    let mut enc = Enc::new();
    encode_graph(&mut enc, graph);
    fnv1a64(&enc.finish())
}

fn encode_attributes(enc: &mut Enc, attributes: &AttributeStore) {
    let mut names: Vec<&str> = attributes.attribute_names().collect();
    names.sort_unstable();
    for name in names {
        enc.str(name);
        let column = attributes.column(name).unwrap_or(&[]);
        enc.seq(column, |enc, value| {
            enc.option(value.as_ref(), |enc, &v| enc.f64(v));
        });
    }
}

fn dataset_digest(ds: &Dataset) -> u64 {
    let mut enc = Enc::new();
    encode_graph(&mut enc, &ds.graph);
    encode_attributes(&mut enc, &ds.attributes);
    fnv1a64(&enc.finish())
}

/// Three chunks' worth of entities, so the lists span chunk boundaries.
fn freebase_three_chunks() -> FreebaseConfig {
    FreebaseConfig {
        entities: 2_600,
        edges: 8_000,
        ..FreebaseConfig::tiny()
    }
}

#[test]
fn freebase_like_is_pinned() {
    let digests = [
        dataset_digest(&freebase_like(&FreebaseConfig::tiny())),
        dataset_digest(&freebase_like(&freebase_three_chunks())),
        dataset_digest(&freebase_like(&FreebaseConfig::default())),
    ];
    assert_eq!(
        digests,
        [
            0x026a_d838_5225_d196,
            0x16dc_9827_a13d_bc46,
            0xc53f_8d27_4311_9f7a,
        ],
        "{digests:#018x?}"
    );
}

#[test]
fn movie_like_is_pinned() {
    let digests = [
        dataset_digest(&movie_like(&MovieConfig::tiny())),
        dataset_digest(&movie_like(&MovieConfig::scaled(0.3))),
    ];
    assert_eq!(
        digests,
        [0xa5d8_2c03_2baf_3e26, 0x7cf5_2d28_5841_d629],
        "{digests:#018x?}"
    );
}

#[test]
fn amazon_like_is_pinned() {
    let digests = [
        dataset_digest(&amazon_like(&AmazonConfig::tiny())),
        dataset_digest(&amazon_like(&AmazonConfig::scaled(0.15))),
    ];
    assert_eq!(
        digests,
        [0x44f4_bc64_5f35_848d, 0xd071_2aae_34ee_7756],
        "{digests:#018x?}"
    );
}

#[test]
fn tsv_round_trip_is_pinned() {
    let original = freebase_like(&freebase_three_chunks()).graph;
    let mut bytes = Vec::new();
    write_tsv(&original, &mut bytes).unwrap();
    // A comment, a blank line and a new fact twice: read_tsv keeps one.
    bytes.extend_from_slice(
        b"# trailer\n\nm_new\t/domain_0/rel_0\tm_1\nm_new\t/domain_0/rel_0\tm_1\n",
    );
    let read = read_tsv(bytes.as_slice()).unwrap();
    assert_eq!(read.num_edges(), original.num_edges() + 1);
    let digests = [graph_digest(&original), graph_digest(&read)];
    assert_eq!(
        digests,
        [0x8208_77e1_ce0f_9876, 0x0730_6257_9679_ee16],
        "{digests:#018x?}"
    );
}

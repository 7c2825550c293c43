//! Criterion micro-benchmarks for the from-scratch substrates: hashing,
//! MACs, stream cipher, signatures, Merkle trees, the binary codec, Turtle,
//! and the policy engine. These measure *host* time (the simulation's own
//! measurements are in simulated time via the `report` binary).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use duc_codec::{decode_from_slice, encode_to_vec};
use duc_crypto::{hash_parts, hmac_sha256, sha256, ChaCha20, KeyPair, MerkleTree};
use duc_policy::prelude::*;
use duc_sim::{SimDuration, SimTime};

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data_1k = vec![0xABu8; 1024];
    let data_64k = vec![0xABu8; 64 * 1024];
    // Small inputs, where padding and finalization dominate: a 32-byte
    // digest (Merkle nodes, ids) and a state-commitment account row
    // (domain tag, address, balance, nonce).
    let data_32 = [0xABu8; 32];
    group.throughput(Throughput::Bytes(32));
    group.bench_function("sha256/32B", |b| b.iter(|| sha256(black_box(&data_32))));
    let (balance, nonce) = (1_000_000u128.to_le_bytes(), 7u64.to_le_bytes());
    group.throughput(Throughput::Elements(1));
    group.bench_function("hash_parts/account-row", |b| {
        b.iter(|| hash_parts(black_box(&[b"duc/state/acct", &data_32, &balance, &nonce])))
    });
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256/1KiB", |b| b.iter(|| sha256(black_box(&data_1k))));
    group.throughput(Throughput::Bytes(64 * 1024));
    group.bench_function("sha256/64KiB", |b| b.iter(|| sha256(black_box(&data_64k))));
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("hmac/1KiB", |b| {
        b.iter(|| hmac_sha256(b"key", black_box(&data_1k)))
    });
    let cipher = ChaCha20::new([7; 32], [9; 12]);
    group.throughput(Throughput::Bytes(64 * 1024));
    group.bench_function("chacha20/64KiB", |b| {
        b.iter(|| cipher.encrypt(black_box(&data_64k)))
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("schnorr");
    let kp = KeyPair::from_seed(b"bench");
    let msg = b"a transaction-sized message for signing benchmarks";
    let sig = kp.sign(msg);
    group.bench_function("sign", |b| b.iter(|| kp.sign(black_box(msg))));
    group.bench_function("verify", |b| {
        b.iter(|| kp.public().verify(black_box(msg), black_box(&sig)).is_ok())
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    let leaves: Vec<Vec<u8>> = (0..256).map(|i| format!("tx-{i}").into_bytes()).collect();
    group.bench_function("build/256", |b| {
        b.iter(|| MerkleTree::from_leaves(black_box(&leaves)))
    });
    let tree = MerkleTree::from_leaves(&leaves);
    group.bench_function("prove+verify/256", |b| {
        b.iter(|| {
            let proof = tree.prove(black_box(127)).expect("in range");
            proof.verify(b"tx-127", &tree.root())
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let value: Vec<(u64, String, Option<u64>)> = (0..64)
        .map(|i| (i, format!("https://pod.example/resource/{i}"), Some(i * 7)))
        .collect();
    let bytes = encode_to_vec(&value);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode/64-records", |b| {
        b.iter(|| encode_to_vec(black_box(&value)))
    });
    group.bench_function("decode/64-records", |b| {
        b.iter(|| {
            decode_from_slice::<Vec<(u64, String, Option<u64>)>>(black_box(&bytes)).expect("ok")
        })
    });
    group.finish();
}

fn sample_policy() -> UsagePolicy {
    UsagePolicy::builder("urn:p", "urn:r", "urn:o")
        .permit(
            Rule::permit([Action::Use, Action::Read])
                .with_constraint(Constraint::Purpose(vec![
                    Purpose::new("medical"),
                    Purpose::new("academic"),
                ]))
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))
                .with_constraint(Constraint::MaxAccessCount(100)),
        )
        .rule(Rule::prohibit([Action::Distribute]))
        .duty(Duty::DeleteWithin(SimDuration::from_days(7)))
        .duty(Duty::LogAccesses)
        .build()
}

fn bench_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy");
    let engine = PolicyEngine::default();
    let policy = sample_policy();
    let ctx = UsageContext {
        consumer: "urn:alice".into(),
        action: Action::Read,
        purpose: Purpose::new("medical-research"),
        now: SimTime::from_secs(100),
        acquired_at: SimTime::from_secs(50),
        access_count: 3,
    };
    group.bench_function("evaluate", |b| {
        b.iter(|| engine.evaluate(black_box(&policy), black_box(&ctx)))
    });
    let dsl_src = duc_policy::dsl::serialize(&policy);
    group.bench_function("dsl_parse", |b| {
        b.iter(|| duc_policy::dsl::parse(black_box(&dsl_src)).expect("parses"))
    });
    group.bench_function("codec_roundtrip", |b| {
        b.iter(|| {
            let bytes = encode_to_vec(black_box(&policy));
            decode_from_slice::<UsagePolicy>(&bytes).expect("decodes")
        })
    });
    group.finish();
}

fn bench_rdf(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdf");
    let policy = UsagePolicy::builder(
        "https://bob.pod/policies#p",
        "https://bob.pod/data/medical.ttl",
        "https://bob.id/me",
    )
    .permit(
        Rule::permit([Action::Use])
            .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")]))
            .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
    )
    .duty(Duty::LogAccesses)
    .build();
    let graph = duc_policy::rdf_binding::policy_to_graph(&policy).expect("graph");
    let text = duc_rdf::turtle::serialize(&graph);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("turtle_parse/policy", |b| {
        b.iter(|| duc_rdf::turtle::parse(black_box(&text)).expect("parses"))
    });
    group.bench_function("turtle_serialize/policy", |b| {
        b.iter(|| duc_rdf::turtle::serialize(black_box(&graph)))
    });
    group.bench_function("policy_from_graph", |b| {
        b.iter(|| duc_policy::rdf_binding::policy_from_graph(black_box(&graph)).expect("policy"))
    });
    group.finish();
}

fn bench_acl(c: &mut Criterion) {
    let mut group = c.benchmark_group("acl");
    for n in [1usize, 64, 512] {
        let mut acl = AclDocument::new();
        for i in 0..n {
            acl.push(Authorization::for_resource(
                format!("auth-{i}"),
                format!("https://pod.example/res-{i}"),
                vec![AgentSpec::Agent(format!("https://agent-{i}.id/me"))],
                vec![AclMode::Read],
            ));
        }
        group.bench_function(format!("allows/{n}-entries"), |b| {
            b.iter(|| {
                acl.allows(
                    black_box(Some("https://agent-0.id/me")),
                    AclMode::Read,
                    black_box("https://pod.example/res-0"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_signatures,
    bench_merkle,
    bench_codec,
    bench_policy,
    bench_rdf,
    bench_acl
);
criterion_main!(benches);

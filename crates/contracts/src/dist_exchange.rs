//! The DistExchange contract implementation.
//!
//! Storage layout (all keys ASCII-prefixed, `\0`-separated composites;
//! rows are the compact encodings of [`crate::rows`] — identity strings
//! live in the key, policies in the content-addressed `pol/` table):
//!
//! ```text
//! cfg/*                      market configuration (set once by `init`)
//! pol/{digest}               → PolicyEnvelope (content-addressed, shared)
//! pod/{owner_webid}          → PodRow
//! res/{resource}             → ResourceRow
//! copy/{resource}\0{device}  → CopyRow
//! roundctr/{resource}        → u64
//! round/{resource}\0{round}  → MonitoringRound
//! sub/{webid}                → SubRow
//! cert/{digest}              → () existence marker
//! ```
//!
//! View methods (`get_pod`, `lookup_resource`, `get_subscription`,
//! `list_copies`) reconstruct the full ABI records of [`crate::abi`] from
//! key + row + pol table, so callers see the exact same wire format as
//! before the compaction. Hot mutation paths (`update_policy`,
//! `start_monitoring`, `register_copy`) never materialize a policy
//! envelope from storage.

use std::cell::RefCell;

use duc_blockchain::{Address, CallCtx, Contract, ContractError};
use duc_codec::{decode_from_slice, encode_to_vec};
use duc_crypto::{hash_parts, Digest};
use duc_intern::{Interner, SymMap};
use duc_sim::SimDuration;

use crate::abi::{
    CopyRecord, EvidenceReaffirmation, EvidenceSubmission, MonitoringRound, PodRecord,
    PolicyEnvelope, ResourceRecord, Subscription,
};
use crate::rows::{pol_key, CopyRow, PodRow, ResourceRow, SubRow};
use crate::topics;

/// The conventional deployment id of the DE App.
pub const DEX_CONTRACT_ID: &str = "dist-exchange";

/// The DistExchange application contract.
///
/// The contract logic itself is stateless; `keys` is a purely off-chain
/// memo of composed storage keys (interned identity → formatted key
/// bytes), so repeat calls for the same pod/resource/webid skip the
/// `format!` machinery. The wire format — storage keys, events, gas — is
/// byte-identical with or without the cache.
#[derive(Debug, Default)]
pub struct DistExchange {
    keys: RefCell<KeyCache>,
}

/// Composed-storage-key memo: one symbol per identity string, one cached
/// key byte-vector per `(table, identity)` pair.
#[derive(Debug, Default)]
struct KeyCache {
    ids: Interner,
    pod: SymMap<Vec<u8>>,
    res: SymMap<Vec<u8>>,
    sub: SymMap<Vec<u8>>,
    round_counter: SymMap<Vec<u8>>,
    copy_prefix: SymMap<Vec<u8>>,
    round_prefix: SymMap<Vec<u8>>,
}

macro_rules! cached_key {
    ($self:ident, $table:ident, $name:expr, $build:expr) => {{
        let sym = $self.ids.intern($name);
        if $self.$table.get(sym).is_none() {
            $self.$table.insert(sym, $build);
        }
        $self.$table.get(sym).expect("just inserted").as_slice()
    }};
}

impl KeyCache {
    fn pod(&mut self, owner_webid: &str) -> &[u8] {
        cached_key!(
            self,
            pod,
            owner_webid,
            format!("pod/{owner_webid}").into_bytes()
        )
    }

    fn res(&mut self, resource: &str) -> &[u8] {
        cached_key!(self, res, resource, format!("res/{resource}").into_bytes())
    }

    fn sub(&mut self, webid: &str) -> &[u8] {
        cached_key!(self, sub, webid, format!("sub/{webid}").into_bytes())
    }

    fn round_counter(&mut self, resource: &str) -> &[u8] {
        cached_key!(
            self,
            round_counter,
            resource,
            format!("roundctr/{resource}").into_bytes()
        )
    }

    /// `copy/{resource}\0` — the per-resource scan prefix.
    fn copy_prefix(&mut self, resource: &str) -> &[u8] {
        cached_key!(self, copy_prefix, resource, {
            let mut k = format!("copy/{resource}").into_bytes();
            k.push(0);
            k
        })
    }

    fn copy(&mut self, resource: &str, device: &str) -> Vec<u8> {
        let mut k = self.copy_prefix(resource).to_vec();
        k.extend_from_slice(device.as_bytes());
        k
    }

    fn round(&mut self, resource: &str, round: u64) -> Vec<u8> {
        let prefix = cached_key!(self, round_prefix, resource, {
            let mut k = format!("round/{resource}").into_bytes();
            k.push(0);
            k
        });
        let mut k = prefix.to_vec();
        k.extend_from_slice(format!("{round:020}").as_bytes());
        k
    }
}

fn cert_key(cert: &Digest) -> Vec<u8> {
    let mut k = b"cert/".to_vec();
    k.extend_from_slice(cert.as_bytes());
    k
}

fn revert(msg: impl Into<String>) -> ContractError {
    ContractError::Reverted(msg.into())
}

/// Writes the content-addressed pol-table row for `policy` and returns its
/// digest. Unconditional and idempotent: the key is the digest of the
/// exact bytes written, so every writer of a given envelope stores
/// identical bytes, and skipping the existence probe keeps gas identical
/// on every path.
fn put_policy(ctx: &mut CallCtx<'_>, policy: &PolicyEnvelope) -> Result<Digest, ContractError> {
    let digest = policy.digest();
    ctx.set(pol_key(&digest), policy)?;
    Ok(digest)
}

/// Fetches an envelope from the pol table (view-method reconstruction).
fn get_policy(ctx: &mut CallCtx<'_>, digest: &Digest) -> Result<PolicyEnvelope, ContractError> {
    ctx.get(&pol_key(digest))?
        .ok_or_else(|| revert("missing policy envelope"))
}

impl DistExchange {
    fn init(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (fee, validity_nanos, treasury): (u128, u64, Address) = decode_from_slice(args)?;
        if ctx.get_raw(b"cfg/fee")?.is_some() {
            return Err(revert("already initialized"));
        }
        ctx.set(b"cfg/fee".to_vec(), &fee)?;
        ctx.set(b"cfg/validity".to_vec(), &validity_nanos)?;
        ctx.set(b"cfg/treasury".to_vec(), &treasury)?;
        Ok(Vec::new())
    }

    fn register_pod(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (owner_webid, web_ref, default_policy): (String, String, PolicyEnvelope) =
            decode_from_slice(args)?;
        let key = self.keys.borrow_mut().pod(&owner_webid).to_vec();
        if ctx.get_raw(&key)?.is_some() {
            return Err(revert(format!("pod already registered for {owner_webid}")));
        }
        let policy = put_policy(ctx, &default_policy)?;
        let row = PodRow {
            owner_addr: ctx.caller,
            web_ref,
            policy,
            registered_at: ctx.block_time,
        };
        ctx.set(key, &row)?;
        ctx.emit(topics::POD_REGISTERED, encode_to_vec(&(owner_webid,)))?;
        Ok(Vec::new())
    }

    fn get_pod(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (owner_webid,): (String,) = decode_from_slice(args)?;
        let row: Option<PodRow> = ctx.get(self.keys.borrow_mut().pod(&owner_webid))?;
        let record: Option<PodRecord> = match row {
            None => None,
            Some(row) => {
                let policy = get_policy(ctx, &row.policy)?;
                Some(row.into_record(owner_webid, policy))
            }
        };
        Ok(encode_to_vec(&record))
    }

    fn register_resource(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (resource, location, owner_webid, metadata, policy): (
            String,
            String,
            String,
            Vec<(String, String)>,
            PolicyEnvelope,
        ) = decode_from_slice(args)?;
        let pod: PodRow = ctx
            .get(self.keys.borrow_mut().pod(&owner_webid))?
            .ok_or_else(|| revert(format!("no pod registered for {owner_webid}")))?;
        if pod.owner_addr != ctx.caller {
            return Err(revert("caller does not own the pod"));
        }
        let key = self.keys.borrow_mut().res(&resource).to_vec();
        if ctx.get_raw(&key)?.is_some() {
            return Err(revert(format!("resource already registered: {resource}")));
        }
        let digest = put_policy(ctx, &policy)?;
        let row = ResourceRow {
            location: ResourceRow::encode_location(&resource, location),
            owner_webid,
            owner_addr: ctx.caller,
            metadata,
            policy: digest,
            policy_version: 1,
            registered_at: ctx.block_time,
        };
        ctx.set(key, &row)?;
        ctx.emit(topics::RESOURCE_REGISTERED, encode_to_vec(&(resource,)))?;
        Ok(Vec::new())
    }

    fn lookup_resource(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (resource,): (String,) = decode_from_slice(args)?;
        let row: Option<ResourceRow> = ctx.get(self.keys.borrow_mut().res(&resource))?;
        let record: Option<ResourceRecord> = match row {
            None => None,
            Some(row) => {
                let policy = get_policy(ctx, &row.policy)?;
                Some(row.into_record(resource, policy))
            }
        };
        Ok(encode_to_vec(&record))
    }

    fn list_resources(&self, ctx: &mut CallCtx<'_>) -> Result<Vec<u8>, ContractError> {
        let keys = ctx.keys_with_prefix(b"res/")?;
        let names: Vec<String> = keys
            .into_iter()
            .filter_map(|k| String::from_utf8(k[4..].to_vec()).ok())
            .collect();
        Ok(encode_to_vec(&names))
    }

    fn update_policy(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (resource, policy, new_version): (String, PolicyEnvelope, u64) =
            decode_from_slice(args)?;
        let key = self.keys.borrow_mut().res(&resource).to_vec();
        // The hot path: only the compact row round-trips storage — the
        // superseded envelope is never read, the new one only written.
        let mut row: ResourceRow = ctx
            .get(&key)?
            .ok_or_else(|| revert(format!("unknown resource {resource}")))?;
        if row.owner_addr != ctx.caller {
            return Err(revert("only the owner may update the policy"));
        }
        if new_version != row.policy_version + 1 {
            return Err(revert(format!(
                "version must increment: current {}, got {new_version}",
                row.policy_version
            )));
        }
        let policy_hash = put_policy(ctx, &policy)?;
        row.policy = policy_hash;
        row.policy_version = new_version;
        ctx.set(key, &row)?;
        // The event anchors the new policy *hash* alongside the envelope:
        // devices verify the pushed bytes against it before recompiling
        // their local program and re-scheduling obligations.
        ctx.emit(
            topics::POLICY_UPDATED,
            encode_to_vec(&(resource, new_version, policy, policy_hash)),
        )?;
        Ok(Vec::new())
    }

    fn register_copy(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (resource, device, holder_webid, attestation_key): (
            String,
            String,
            String,
            duc_crypto::PublicKey,
        ) = decode_from_slice(args)?;
        if ctx
            .get_raw(self.keys.borrow_mut().res(&resource))?
            .is_none()
        {
            return Err(revert(format!("unknown resource {resource}")));
        }
        let key = self.keys.borrow_mut().copy(&resource, &device);
        let row = CopyRow {
            holder_webid,
            attestation_key,
            registered_at: ctx.block_time,
        };
        ctx.set(key, &row)?;
        ctx.emit(topics::COPY_REGISTERED, encode_to_vec(&(resource, device)))?;
        Ok(Vec::new())
    }

    /// Removes a copy record, but only when it predates `as_of` — an
    /// in-flight unregister (submitted when a TEE deleted its copy) must
    /// not clobber a *newer* registration from a re-access that raced it;
    /// the guarded case returns `(false,)` without touching the record.
    fn unregister_copy(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (resource, device, as_of_nanos): (String, String, u64) = decode_from_slice(args)?;
        let key = self.keys.borrow_mut().copy(&resource, &device);
        let Some(row) = ctx.get::<CopyRow>(&key)? else {
            return Err(revert("no such copy"));
        };
        if row.registered_at.as_nanos() >= as_of_nanos {
            return Ok(encode_to_vec(&(false,)));
        }
        ctx.remove_raw(&key)?;
        ctx.emit(topics::COPY_REMOVED, encode_to_vec(&(resource, device)))?;
        Ok(encode_to_vec(&(true,)))
    }

    fn list_copies(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (resource,): (String,) = decode_from_slice(args)?;
        let copies = self.copies_of(ctx, &resource)?;
        Ok(encode_to_vec(&copies))
    }

    fn copies_of(
        &self,
        ctx: &mut CallCtx<'_>,
        resource: &str,
    ) -> Result<Vec<CopyRecord>, ContractError> {
        let prefix = self.keys.borrow_mut().copy_prefix(resource).to_vec();
        let keys = ctx.keys_with_prefix(&prefix)?;
        let mut copies = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(row) = ctx.get::<CopyRow>(&k)? {
                let device = String::from_utf8(k[prefix.len()..].to_vec())
                    .map_err(|_| revert("non-utf8 device in copy key"))?;
                copies.push(row.into_record(device));
            }
        }
        Ok(copies)
    }

    /// The devices currently holding copies of `resource` — read off the
    /// key suffixes alone, with no row fetches (the compact layout keeps
    /// the device name in the key).
    fn copy_devices(
        &self,
        ctx: &mut CallCtx<'_>,
        resource: &str,
    ) -> Result<Vec<String>, ContractError> {
        let prefix = self.keys.borrow_mut().copy_prefix(resource).to_vec();
        let keys = ctx.keys_with_prefix(&prefix)?;
        keys.into_iter()
            .map(|k| {
                String::from_utf8(k[prefix.len()..].to_vec())
                    .map_err(|_| revert("non-utf8 device in copy key"))
            })
            .collect()
    }

    fn start_monitoring(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (resource,): (String,) = decode_from_slice(args)?;
        let row: ResourceRow = ctx
            .get(self.keys.borrow_mut().res(&resource))?
            .ok_or_else(|| revert(format!("unknown resource {resource}")))?;
        if row.owner_addr != ctx.caller {
            return Err(revert("only the owner may start monitoring"));
        }
        let counter_key = self.keys.borrow_mut().round_counter(&resource).to_vec();
        let round: u64 = ctx.get(&counter_key)?.unwrap_or(0) + 1;
        ctx.set(counter_key, &round)?;
        let expected = self.copy_devices(ctx, &resource)?;
        let round_record = MonitoringRound {
            round,
            resource: resource.clone(),
            requested_by: ctx.caller,
            started_at: ctx.block_time,
            expected_devices: expected.clone(),
            evidence: Vec::new(),
            reaffirmed: Vec::new(),
            closed: expected.is_empty(),
        };
        ctx.set(
            self.keys.borrow_mut().round(&resource, round),
            &round_record,
        )?;
        ctx.emit(
            topics::MONITORING_REQUESTED,
            encode_to_vec(&(resource.clone(), round, expected)),
        )?;
        if round_record.closed {
            ctx.emit(
                topics::ROUND_CLOSED,
                encode_to_vec(&(resource, round, 0u64, Vec::<String>::new())),
            )?;
        }
        Ok(encode_to_vec(&(round,)))
    }

    /// Closes `round` and emits `RoundClosed` when every expected device
    /// has answered (shared by full submissions and reaffirmations).
    fn close_if_complete(
        &self,
        ctx: &mut CallCtx<'_>,
        round: &mut MonitoringRound,
    ) -> Result<(), ContractError> {
        if !round.complete() {
            return Ok(());
        }
        round.closed = true;
        let violators: Vec<String> = round.violators().iter().map(|e| e.device.clone()).collect();
        let compliant_count = round.compliant_count();
        ctx.emit(
            topics::ROUND_CLOSED,
            encode_to_vec(&(
                round.resource.clone(),
                round.round,
                compliant_count,
                violators,
            )),
        )?;
        Ok(())
    }

    fn record_evidence(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let submission: EvidenceSubmission = decode_from_slice(args)?;
        let rkey = self
            .keys
            .borrow_mut()
            .round(&submission.resource, submission.round);
        let mut round: MonitoringRound = ctx
            .get(&rkey)?
            .ok_or_else(|| revert("unknown monitoring round"))?;
        if round.closed {
            return Err(revert("round already closed"));
        }
        if !round.expected_devices.contains(&submission.device) {
            return Err(revert(format!(
                "device {} not expected in this round",
                submission.device
            )));
        }
        if round.evidence.iter().any(|e| e.device == submission.device)
            || round
                .reaffirmed
                .iter()
                .any(|(d, _)| *d == submission.device)
        {
            return Err(revert("duplicate evidence for device"));
        }
        // Verify the enclave signature against the registered attestation
        // key: forged evidence cannot enter the ledger.
        let copy: CopyRow = ctx
            .get(
                &self
                    .keys
                    .borrow_mut()
                    .copy(&submission.resource, &submission.device),
            )?
            .ok_or_else(|| revert("copy no longer registered"))?;
        if copy
            .attestation_key
            .verify(&submission.signing_bytes(), &submission.signature)
            .is_err()
        {
            return Err(revert("evidence signature does not verify"));
        }
        ctx.emit(
            topics::EVIDENCE_RECORDED,
            encode_to_vec(&(
                submission.resource.clone(),
                submission.round,
                submission.device.clone(),
                submission.compliant,
            )),
        )?;
        round.evidence.push(submission);
        self.close_if_complete(ctx, &mut round)?;
        ctx.set(rkey, &round)?;
        Ok(Vec::new())
    }

    /// Copies a device's evidence from an earlier round into `round`,
    /// after verifying the enclave's signed attestation that the usage log
    /// is unchanged — the cheap incremental-monitoring path for copies
    /// whose log did not advance since they were last audited.
    fn reaffirm_evidence(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let reaff: EvidenceReaffirmation = decode_from_slice(args)?;
        let rkey = self.keys.borrow_mut().round(&reaff.resource, reaff.round);
        let mut round: MonitoringRound = ctx
            .get(&rkey)?
            .ok_or_else(|| revert("unknown monitoring round"))?;
        if round.closed {
            return Err(revert("round already closed"));
        }
        if !round.expected_devices.contains(&reaff.device) {
            return Err(revert(format!(
                "device {} not expected in this round",
                reaff.device
            )));
        }
        if round.evidence.iter().any(|e| e.device == reaff.device)
            || round.reaffirmed.iter().any(|(d, _)| *d == reaff.device)
        {
            return Err(revert("duplicate evidence for device"));
        }
        let copy: CopyRow = ctx
            .get(&self.keys.borrow_mut().copy(&reaff.resource, &reaff.device))?
            .ok_or_else(|| revert("copy no longer registered"))?;
        if copy
            .attestation_key
            .verify(&reaff.signing_bytes(), &reaff.signature)
            .is_err()
        {
            return Err(revert("reaffirmation signature does not verify"));
        }
        // The prior evidence must exist, be compliant, and carry the very
        // same digest — anything else requires a full resubmission.
        let prev: MonitoringRound = ctx
            .get(
                &self
                    .keys
                    .borrow_mut()
                    .round(&reaff.resource, reaff.prev_round),
            )?
            .ok_or_else(|| revert("unknown prior round"))?;
        // `prev_round` must hold *full* evidence (devices always point
        // their reaffirmations at the round of their last full
        // submission), so the digest is checked against signed bytes.
        let prior_ok = prev.evidence.iter().any(|e| {
            e.device == reaff.device && e.compliant && e.evidence_digest == reaff.evidence_digest
        });
        if !prior_ok {
            return Err(revert("no matching compliant prior evidence to reaffirm"));
        }
        ctx.emit(
            topics::EVIDENCE_RECORDED,
            encode_to_vec(&(
                reaff.resource.clone(),
                reaff.round,
                reaff.device.clone(),
                true,
            )),
        )?;
        round.reaffirmed.push((reaff.device, reaff.prev_round));
        self.close_if_complete(ctx, &mut round)?;
        ctx.set(rkey, &round)?;
        Ok(Vec::new())
    }

    fn get_round(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (resource, round): (String, u64) = decode_from_slice(args)?;
        let record: Option<MonitoringRound> =
            ctx.get(&self.keys.borrow_mut().round(&resource, round))?;
        Ok(encode_to_vec(&record))
    }

    fn subscribe(&self, ctx: &mut CallCtx<'_>, args: &[u8]) -> Result<Vec<u8>, ContractError> {
        let (webid,): (String,) = decode_from_slice(args)?;
        let fee: u128 = ctx
            .get(b"cfg/fee")?
            .ok_or_else(|| revert("market not initialized"))?;
        let validity: u64 = ctx.get(b"cfg/validity")?.unwrap_or(0);
        let treasury: Address = ctx
            .get(b"cfg/treasury")?
            .ok_or_else(|| revert("market not initialized"))?;
        ctx.transfer_from_caller(treasury, fee)?;
        let certificate = hash_parts(&[
            b"duc/cert",
            webid.as_bytes(),
            &ctx.block_time.as_nanos().to_le_bytes(),
            ctx.caller.0.as_bytes(),
        ]);
        let sub = SubRow {
            addr: ctx.caller,
            certificate,
            paid_at: ctx.block_time,
            valid_until: ctx.block_time + SimDuration::from_nanos(validity),
        };
        ctx.set(self.keys.borrow_mut().sub(&webid).to_vec(), &sub)?;
        // Existence marker only: ownership of the certificate is implied —
        // the sole writer of cert/{c} is the subscribe that minted c, and
        // c commits to the subscriber's WebID (hash preimage above), so
        // sub/{webid}.certificate == c already proves c was issued to
        // webid. Storing the WebID again would duplicate the key material.
        ctx.set_raw(cert_key(&certificate), Vec::new())?;
        ctx.emit(
            topics::CERTIFICATE_ISSUED,
            encode_to_vec(&(webid, certificate)),
        )?;
        Ok(encode_to_vec(&(certificate,)))
    }

    fn verify_certificate(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (certificate, webid): (Digest, String) = decode_from_slice(args)?;
        let valid = if ctx.get_raw(&cert_key(&certificate))?.is_some() {
            let sub: Option<SubRow> = ctx.get(self.keys.borrow_mut().sub(&webid))?;
            sub.map(|s| s.certificate == certificate && s.valid_at(ctx.block_time))
                .unwrap_or(false)
        } else {
            false
        };
        Ok(encode_to_vec(&(valid,)))
    }

    fn get_subscription(
        &self,
        ctx: &mut CallCtx<'_>,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (webid,): (String,) = decode_from_slice(args)?;
        let sub: Option<Subscription> = ctx
            .get::<SubRow>(self.keys.borrow_mut().sub(&webid))?
            .map(|row| row.into_record(webid));
        Ok(encode_to_vec(&sub))
    }
}

impl Contract for DistExchange {
    fn call(
        &self,
        ctx: &mut CallCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        match method {
            "init" => self.init(ctx, args),
            "register_pod" => self.register_pod(ctx, args),
            "get_pod" => self.get_pod(ctx, args),
            "register_resource" => self.register_resource(ctx, args),
            "lookup_resource" => self.lookup_resource(ctx, args),
            "list_resources" => self.list_resources(ctx),
            "update_policy" => self.update_policy(ctx, args),
            "register_copy" => self.register_copy(ctx, args),
            "unregister_copy" => self.unregister_copy(ctx, args),
            "list_copies" => self.list_copies(ctx, args),
            "start_monitoring" => self.start_monitoring(ctx, args),
            "record_evidence" => self.record_evidence(ctx, args),
            "reaffirm_evidence" => self.reaffirm_evidence(ctx, args),
            "get_round" => self.get_round(ctx, args),
            "subscribe" => self.subscribe(ctx, args),
            "verify_certificate" => self.verify_certificate(ctx, args),
            "get_subscription" => self.get_subscription(ctx, args),
            other => Err(ContractError::UnknownMethod(other.to_string())),
        }
    }
}

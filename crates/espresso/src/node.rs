//! The Espresso storage node.
//!
//! "The storage node maintains a consistent view of each document in a
//! local data store and optionally indexes each document in a local
//! secondary index based on the index constraints specified in the
//! document schema. The initial implementation stores documents in MySQL
//! as the local data store and Lucene for the local secondary index"
//! (§IV.B). Here the local data store is an `li-sqlstore` [`Database`]
//! (one instance, one binlog per node — the paper's sequential-I/O
//! argument) and the index is [`InvertedIndex`].
//!
//! Writes are accepted only for partitions this node currently *masters*
//! (normally one writer per partition exists cluster-wide); every commit
//! ships semi-synchronously to the node's Databus relay before it is
//! acknowledged. Slave partitions are fed by [`StorageNode::bootstrap_partition`]
//! (snapshot copy) plus [`StorageNode::sync_partition`] (relay catch-up),
//! applied in commit order — timeline consistency.

use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use li_commons::ring::NodeId;
use li_commons::schema::{Record, SchemaVersion};
use li_databus::{Relay, ServerFilter};
use li_sqlstore::{Database, Op, Row, RowKey, Scn};

use crate::index::InvertedIndex;
use crate::schema::{DatabaseSchema, EspressoError};

/// Shared, evolvable database schema handle.
pub type SchemaHandle = Arc<RwLock<DatabaseSchema>>;

/// Rows of one partition: `(table, key, row)` triples.
pub type PartitionSnapshot = Vec<(String, RowKey, Row)>;

fn qualified(db: &str, table: &str) -> String {
    format!("{db}.{table}")
}

/// One storage node.
pub struct StorageNode {
    id: NodeId,
    store: Arc<Database>,
    relay: Arc<Relay>,
    schemas: RwLock<HashMap<String, SchemaHandle>>,
    indexes: Mutex<HashMap<String, InvertedIndex>>,
    /// (database, partition) pairs this node currently masters.
    mastered: RwLock<HashSet<(String, u32)>>,
    /// Replication progress per (source node, database, partition).
    checkpoints: Mutex<HashMap<(NodeId, String, u32), Scn>>,
}

impl std::fmt::Debug for StorageNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageNode")
            .field("id", &self.id)
            .field("mastered", &self.mastered.read().len())
            .field("last_scn", &self.store.last_scn())
            .finish()
    }
}

impl StorageNode {
    /// Creates a node whose commits ship semi-synchronously to `relay`.
    pub fn new(id: NodeId, relay: Arc<Relay>) -> Self {
        let store = Arc::new(Database::new(format!("espresso-node-{}", id.0)));
        store.set_shipper(relay.clone());
        StorageNode {
            id,
            store,
            relay,
            schemas: RwLock::new(HashMap::new()),
            indexes: Mutex::new(HashMap::new()),
            mastered: RwLock::new(HashSet::new()),
            checkpoints: Mutex::new(HashMap::new()),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The relay this node publishes its binlog to.
    pub fn relay(&self) -> &Arc<Relay> {
        &self.relay
    }

    /// Commit SCN of the local store.
    pub fn last_scn(&self) -> Scn {
        self.store.last_scn()
    }

    /// Provisions the local tables and index structures for a database.
    pub fn create_database(&self, schema: SchemaHandle) -> Result<(), EspressoError> {
        let (name, tables) = {
            let s = schema.read();
            (s.name.clone(), s.tables.keys().cloned().collect::<Vec<_>>())
        };
        for table in &tables {
            self.store.create_table(qualified(&name, table))?;
            self.indexes
                .lock()
                .insert(qualified(&name, table), InvertedIndex::new());
        }
        self.schemas.write().insert(name, schema);
        Ok(())
    }

    fn schema(&self, db: &str) -> Result<SchemaHandle, EspressoError> {
        self.schemas
            .read()
            .get(db)
            .cloned()
            .ok_or_else(|| EspressoError::UnknownDatabase(db.into()))
    }

    /// Marks this node master for `(db, partition)` — called by the Helix
    /// transition handler on Slave→Master.
    pub fn set_master(&self, db: &str, partition: u32, master: bool) {
        let mut mastered = self.mastered.write();
        if master {
            mastered.insert((db.to_string(), partition));
        } else {
            mastered.remove(&(db.to_string(), partition));
        }
    }

    /// True when this node masters `(db, partition)`.
    pub fn is_master(&self, db: &str, partition: u32) -> bool {
        self.mastered.read().contains(&(db.to_string(), partition))
    }

    fn check_master(&self, db: &str, resource_id: &str) -> Result<u32, EspressoError> {
        let schema = self.schema(db)?;
        let partition = schema.read().partition_of(resource_id);
        if !self.is_master(db, partition) {
            return Err(EspressoError::NotMaster { partition });
        }
        Ok(partition)
    }

    fn validate_key(
        schema: &DatabaseSchema,
        table: &str,
        key: &RowKey,
    ) -> Result<(), EspressoError> {
        let table_schema = schema.table(table)?;
        if key.0.len() != table_schema.key_depth() {
            return Err(EspressoError::BadRequest(format!(
                "table `{table}` keys have {} elements, got {}",
                table_schema.key_depth(),
                key.0.len()
            )));
        }
        Ok(())
    }

    fn index_record(&self, db: &str, table: &str, key: &RowKey, record: &Record) {
        let schema = match self.schema(db) {
            Ok(s) => s,
            Err(_) => return,
        };
        let schema = schema.read();
        let Ok(doc_schema) = schema.documents.latest(table) else {
            return;
        };
        let mut indexes = self.indexes.lock();
        let Some(index) = indexes.get_mut(&qualified(db, table)) else {
            return;
        };
        let fields: Vec<(&str, &li_commons::schema::Value)> = doc_schema
            .indexed_fields()
            .filter_map(|f| record.get(&f.name).map(|v| (f.name.as_str(), v)))
            .collect();
        index.index_document(key, fields);
    }

    fn unindex(&self, db: &str, table: &str, key: &RowKey) {
        if let Some(index) = self.indexes.lock().get_mut(&qualified(db, table)) {
            index.remove_document(key);
        }
    }

    /// Encodes + validates a record under the table's latest document
    /// schema. Returns `(bytes, version)`.
    fn encode_document(
        &self,
        db: &str,
        table: &str,
        record: &Record,
    ) -> Result<(Vec<u8>, SchemaVersion), EspressoError> {
        let schema = self.schema(db)?;
        let schema = schema.read();
        let doc_schema = schema.documents.latest(table)?;
        let bytes = li_commons::schema::encode(&doc_schema, record)?;
        Ok((bytes, doc_schema.version))
    }

    /// Decodes stored bytes, resolving from the writer schema version to
    /// the latest (schema evolution on read).
    fn decode_document(
        &self,
        db: &str,
        table: &str,
        row: &Row,
    ) -> Result<Record, EspressoError> {
        let schema = self.schema(db)?;
        let schema = schema.read();
        let writer = schema.documents.get(table, row.schema_version)?;
        let reader = schema.documents.latest(table)?;
        Ok(li_commons::schema::resolve(&writer, &reader, &row.value)?)
    }

    /// Writes one document (master path). Returns the new etag.
    pub fn put_document(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
        record: &Record,
    ) -> Result<u64, EspressoError> {
        // The returned commit SCN doubles as the document's etag.
        self.put_transactional(db, vec![(table.to_string(), key, record.clone())])
    }

    /// Conditional write: fails unless the stored etag matches
    /// `expected_etag` (0 = must not exist).
    pub fn put_document_if_match(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
        expected_etag: u64,
        record: &Record,
    ) -> Result<u64, EspressoError> {
        let resource = key
            .resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))?
            .to_string();
        self.check_master(db, &resource)?;
        {
            let schema = self.schema(db)?;
            Self::validate_key(&schema.read(), table, &key)?;
        }
        let (bytes, version) = self.encode_document(db, table, record)?;
        let scn = self
            .store
            .put_if_etag(&qualified(db, table), key.clone(), expected_etag, bytes, version)?;
        self.index_record(db, table, &key, record);
        Ok(scn)
    }

    /// Transactional multi-document write: "tables with a common
    /// resource_id schema may be updated transactionally. ... Espresso
    /// guarantees either all updates commit successfully or none commit."
    /// All keys must share the same resource id (hence partition).
    pub fn put_transactional(
        &self,
        db: &str,
        documents: Vec<(String, RowKey, Record)>,
    ) -> Result<Scn, EspressoError> {
        if documents.is_empty() {
            return Err(EspressoError::BadRequest("empty transaction".into()));
        }
        let resource = documents[0]
            .1
            .resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))?
            .to_string();
        for (_, key, _) in &documents {
            if key.resource_id() != Some(resource.as_str()) {
                return Err(EspressoError::BadRequest(
                    "transactional updates must share a resource_id".into(),
                ));
            }
        }
        self.check_master(db, &resource)?;

        let schema = self.schema(db)?;
        let mut txn = self.store.begin();
        let mut encoded = Vec::with_capacity(documents.len());
        {
            let schema = schema.read();
            for (table, key, record) in &documents {
                Self::validate_key(&schema, table, key)?;
                let doc_schema = schema.documents.latest(table)?;
                let bytes = li_commons::schema::encode(&doc_schema, record)?;
                txn.put(qualified(db, table), key.clone(), bytes, doc_schema.version);
                encoded.push((table.clone(), key.clone(), record.clone()));
            }
        }
        let scn = self.store.commit(txn)?;
        for (table, key, record) in &encoded {
            self.index_record(db, table, key, record);
        }
        Ok(scn)
    }

    /// Deletes a document (master path).
    pub fn delete_document(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
    ) -> Result<(), EspressoError> {
        let resource = key
            .resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))?
            .to_string();
        self.check_master(db, &resource)?;
        self.store.delete_one(&qualified(db, table), key.clone())?;
        self.unindex(db, table, &key);
        Ok(())
    }

    /// Reads one document plus its metadata row.
    pub fn get_document(
        &self,
        db: &str,
        table: &str,
        key: &RowKey,
    ) -> Result<Option<(Record, Row)>, EspressoError> {
        match self.store.get(&qualified(db, table), key)? {
            None => Ok(None),
            Some(row) => {
                let record = self.decode_document(db, table, &row)?;
                Ok(Some((record, row)))
            }
        }
    }

    /// Reads a collection: every document under `prefix`, in key order.
    pub fn get_collection(
        &self,
        db: &str,
        table: &str,
        prefix: &RowKey,
    ) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        let rows = self.store.scan_prefix(&qualified(db, table), prefix)?;
        rows.into_iter()
            .map(|(key, row)| Ok((key.clone(), self.decode_document(db, table, &row)?)))
            .collect()
    }

    /// Secondary-index query within a collection: consult the local index,
    /// then fetch matching documents from the local store.
    pub fn query(
        &self,
        db: &str,
        table: &str,
        collection: Option<&RowKey>,
        field: &str,
        term: &str,
    ) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        let keys = {
            let indexes = self.indexes.lock();
            let index = indexes
                .get(&qualified(db, table))
                .ok_or_else(|| EspressoError::UnknownTable(table.into()))?;
            index.query(field, term, collection)
        };
        keys.into_iter()
            .filter_map(|key| match self.store.get(&qualified(db, table), &key) {
                Ok(Some(row)) => Some(
                    self.decode_document(db, table, &row)
                        .map(|record| (key, record)),
                ),
                _ => None,
            })
            .collect()
    }

    /// Snapshot of every row of `(db, partition)` across all tables —
    /// the bootstrap source for a new slave. Returns the rows plus the
    /// SCN to start relay consumption from.
    pub fn snapshot_partition(
        &self,
        db: &str,
        partition: u32,
    ) -> Result<(PartitionSnapshot, Scn), EspressoError> {
        let schema = self.schema(db)?;
        let schema = schema.read();
        // Read the SCN *before* copying: replaying (checkpoint, now] over
        // the copy is idempotent, so at-least-once is safe; reading it
        // after could miss commits that landed mid-copy.
        let checkpoint = self.store.last_scn();
        let mut rows = Vec::new();
        for table in schema.tables.keys() {
            for (key, row) in self.store.scan_prefix(&qualified(db, table), &RowKey::default())? {
                let Some(resource) = key.resource_id() else {
                    continue;
                };
                if schema.partition_of(resource) == partition {
                    rows.push((table.clone(), key, row));
                }
            }
        }
        Ok((rows, checkpoint))
    }

    /// Installs a bootstrap snapshot for `(db, partition)` from `source`
    /// and records the relay checkpoint — phase 1 of "we first bootstrap
    /// the new partition from a snapshot taken from the original master
    /// partition, and then apply any changes since the snapshot from the
    /// Databus Relay".
    pub fn bootstrap_partition(
        &self,
        db: &str,
        partition: u32,
        source: NodeId,
        rows: PartitionSnapshot,
        checkpoint: Scn,
    ) -> Result<(), EspressoError> {
        let changes: Vec<li_sqlstore::RowChange> = rows
            .iter()
            .map(|(table, key, row)| li_sqlstore::RowChange {
                table: qualified(db, table),
                key: key.clone(),
                op: Op::Put(row.clone()),
            })
            .collect();
        self.store.apply_changes(&changes)?;
        for (table, key, row) in &rows {
            if let Ok(record) = self.decode_document(db, table, row) {
                self.index_record(db, table, key, &record);
            }
        }
        self.checkpoints
            .lock()
            .insert((source, db.to_string(), partition), checkpoint);
        Ok(())
    }

    /// True when this node has a replication checkpoint for
    /// `(source, db, partition)` — i.e. it has bootstrapped that stream.
    pub fn has_stream(&self, source: NodeId, db: &str, partition: u32) -> bool {
        self.checkpoints
            .lock()
            .contains_key(&(source, db.to_string(), partition))
    }

    /// Pulls and applies new windows for `(db, partition)` from the
    /// master's relay, in commit order. Returns windows applied. Passing
    /// the same call again is safe (at-least-once, idempotent puts).
    pub fn sync_partition(
        &self,
        db: &str,
        partition: u32,
        source: NodeId,
        source_relay: &Relay,
    ) -> Result<usize, EspressoError> {
        let key = (source, db.to_string(), partition);
        let checkpoint = *self
            .checkpoints
            .lock()
            .get(&key)
            .ok_or_else(|| EspressoError::Replication(format!(
                "no bootstrap for {db}/p{partition} from {source}"
            )))?;
        let schema = self.schema(db)?;
        let (num_partitions, tables) = {
            let s = schema.read();
            (
                s.num_partitions,
                s.tables
                    .keys()
                    .map(|t| qualified(db, t))
                    .collect::<Vec<_>>(),
            )
        };
        let filter = ServerFilter {
            tables: Some(tables),
            partitions: Some((num_partitions, vec![partition])),
        };
        // Shared views: matching windows are read in place from the relay
        // buffer; only partially-matching windows are trimmed into copies.
        let windows = source_relay
            .events_after(checkpoint, usize::MAX, &filter)
            .map_err(|e| EspressoError::Replication(e.to_string()))?;
        let mut applied = 0;
        for window in &windows {
            self.store.apply_changes(&window.changes)?;
            for change in &window.changes {
                // Maintain the local index from the replicated stream.
                let Some((db_name, table)) = change.table.split_once('.') else {
                    continue;
                };
                match &change.op {
                    Op::Put(row) => {
                        if let Ok(record) = self.decode_document(db_name, table, row) {
                            self.index_record(db_name, table, &change.key, &record);
                        }
                    }
                    Op::Delete => self.unindex(db_name, table, &change.key),
                }
            }
            self.checkpoints.lock().insert(key.clone(), window.scn);
            applied += 1;
        }
        Ok(applied)
    }

    /// Number of documents stored for `(db, table)` (diagnostics).
    pub fn doc_count(&self, db: &str, table: &str) -> Result<usize, EspressoError> {
        Ok(self.store.row_count(&qualified(db, table))?)
    }
}

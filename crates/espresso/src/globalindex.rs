//! Global secondary indexes — the paper's stated future enhancement.
//!
//! §IV.A: "At present, indexed access is limited to collection resources
//! accessed via a common resource_id in the URI path. Future enhancements
//! will implement global secondary indexes maintained via a listener to
//! the update stream." This module builds that enhancement on the
//! machinery that already exists: every storage node's commits flow
//! through its Databus relay, so a listener consuming all relays sees
//! every committed write exactly once (slave applies and bootstrap copies
//! never re-ship) and can maintain a cluster-wide index.
//!
//! Unlike the local index (updated transactionally with the write), the
//! global index is **eventually consistent**: it trails the update stream
//! by the pump interval — the standard trade-off for cross-partition
//! queries.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use li_commons::ring::NodeId;
use li_databus::ServerFilter;
use li_sqlstore::{Op, RowKey, Scn};

use crate::cluster::EspressoCluster;
use crate::index::InvertedIndex;
use crate::schema::EspressoError;

/// A cluster-wide secondary index over one database, fed by the update
/// stream of every storage node.
pub struct GlobalIndex {
    cluster: Arc<EspressoCluster>,
    db: String,
    /// table -> inverted index over *all* partitions.
    indexes: Mutex<HashMap<String, InvertedIndex>>,
    /// Consumption progress per storage-node relay.
    checkpoints: Mutex<HashMap<NodeId, Scn>>,
    /// Nodes whose streams this listener follows.
    sources: Vec<NodeId>,
}

impl GlobalIndex {
    /// Creates a listener over `db`'s update stream. It starts at the
    /// current head of history (SCN 0 on every relay), so index it before
    /// writing, or call [`GlobalIndex::pump`] to catch up.
    pub fn new(cluster: Arc<EspressoCluster>, db: &str, sources: Vec<NodeId>) -> Self {
        GlobalIndex {
            cluster,
            db: db.to_string(),
            indexes: Mutex::new(HashMap::new()),
            checkpoints: Mutex::new(HashMap::new()),
            sources,
        }
    }

    /// Consumes new update-stream windows from every node's relay and
    /// folds them into the global index. Returns windows applied.
    pub fn pump(&self) -> Result<usize, EspressoError> {
        let schema = self.cluster.schema(&self.db)?;
        let tables: Vec<String> = schema.read().tables.keys().cloned().collect();
        let filter = ServerFilter::for_tables(
            tables.iter().map(|t| format!("{}.{t}", self.db)),
        );
        let mut applied = 0;
        for &node in &self.sources {
            let relay = self.cluster.relay(node)?;
            let checkpoint = *self.checkpoints.lock().get(&node).unwrap_or(&0);
            let windows = relay
                .events_after(checkpoint, usize::MAX, &filter)
                .map_err(|e| EspressoError::Replication(e.to_string()))?;
            for window in &windows {
                for change in &window.changes {
                    let Some((_, table)) = change.table.split_once('.') else {
                        continue;
                    };
                    match &change.op {
                        Op::Put(row) => {
                            // Decode under the writer schema, resolve to
                            // latest, index the annotated fields.
                            let schema = schema.read();
                            let Ok(writer) = schema.documents.get(table, row.schema_version)
                            else {
                                continue;
                            };
                            let Ok(reader) = schema.documents.latest(table) else {
                                continue;
                            };
                            let Ok(record) =
                                li_commons::schema::resolve(&writer, &reader, &row.value)
                            else {
                                continue;
                            };
                            let fields: Vec<(&str, &li_commons::schema::Value)> = reader
                                .indexed_fields()
                                .filter_map(|f| record.get(&f.name).map(|v| (f.name.as_str(), v)))
                                .collect();
                            self.indexes
                                .lock()
                                .entry(table.to_string())
                                .or_default()
                                .index_document(&change.key, fields);
                        }
                        Op::Delete => {
                            if let Some(index) = self.indexes.lock().get_mut(table) {
                                index.remove_document(&change.key);
                            }
                        }
                    }
                }
                self.checkpoints.lock().insert(node, window.scn);
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Global query: matching documents across *all* resources — the
    /// access pattern local indexes cannot serve. Returns the keys; fetch
    /// the documents through the router as usual.
    pub fn query(&self, table: &str, field: &str, term: &str) -> Vec<RowKey> {
        self.indexes
            .lock()
            .get(table)
            .map(|index| index.query(field, term, None))
            .unwrap_or_default()
    }

    /// Number of documents currently indexed for `table`.
    pub fn doc_count(&self, table: &str) -> usize {
        self.indexes
            .lock()
            .get(table)
            .map(InvertedIndex::doc_count)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatabaseSchema, PartitionStrategy, TableSchema};
    use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};

    fn cluster_with_songs() -> Arc<EspressoCluster> {
        let schema = DatabaseSchema::new("Music", 8, 2)
            .with_table(
                TableSchema::new("Song", ["artist", "album", "song"]),
                RecordSchema::new(
                    "Song",
                    1,
                    vec![Field::new("lyrics", FieldType::Str).indexed()],
                )
                .unwrap(),
            )
            .unwrap();
        let cluster = EspressoCluster::new(3).unwrap();
        cluster.create_database(schema).unwrap();
        cluster
    }

    fn song(lyrics: &str) -> Record {
        Record::new().with("lyrics", Value::Str(lyrics.into()))
    }

    #[test]
    fn global_query_spans_resources() {
        let cluster = cluster_with_songs();
        // Songs by *different artists* mentioning the same word — a local
        // (per-resource) index can never answer this in one query.
        cluster
            .put("Music", "Song", RowKey::new(["Beatles", "Abbey", "Sun"]),
                 &song("here comes the sun"))
            .unwrap();
        cluster
            .put("Music", "Song", RowKey::new(["Nina", "Feeling", "Sunshine"]),
                 &song("sun in the sky you know how I feel"))
            .unwrap();
        cluster
            .put("Music", "Song", RowKey::new(["Adele", "25", "Hello"]),
                 &song("hello from the other side"))
            .unwrap();

        let global = GlobalIndex::new(
            cluster.clone(),
            "Music",
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        assert!(global.pump().unwrap() > 0);
        let mut hits = global.query("Song", "lyrics", "sun");
        hits.sort();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].resource_id(), Some("Beatles"));
        assert_eq!(hits[1].resource_id(), Some("Nina"));
        assert_eq!(global.doc_count("Song"), 3);
    }

    #[test]
    fn listener_is_eventually_consistent() {
        let cluster = cluster_with_songs();
        let global = GlobalIndex::new(
            cluster.clone(),
            "Music",
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        cluster
            .put("Music", "Song", RowKey::new(["A", "B", "C"]), &song("eventual"))
            .unwrap();
        // Not yet pumped: the write is invisible globally.
        assert!(global.query("Song", "lyrics", "eventual").is_empty());
        global.pump().unwrap();
        assert_eq!(global.query("Song", "lyrics", "eventual").len(), 1);
        // Incremental pumps only process new windows.
        assert_eq!(global.pump().unwrap(), 0);
    }

    #[test]
    fn deletes_and_updates_propagate() {
        let cluster = cluster_with_songs();
        let global = GlobalIndex::new(
            cluster.clone(),
            "Music",
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        let key = RowKey::new(["A", "B", "C"]);
        cluster.put("Music", "Song", key.clone(), &song("first words")).unwrap();
        global.pump().unwrap();
        cluster.put("Music", "Song", key.clone(), &song("second words")).unwrap();
        global.pump().unwrap();
        assert!(global.query("Song", "lyrics", "first").is_empty());
        assert_eq!(global.query("Song", "lyrics", "second").len(), 1);
        cluster.delete("Music", "Song", key).unwrap();
        global.pump().unwrap();
        assert!(global.query("Song", "lyrics", "second").is_empty());
        assert_eq!(global.doc_count("Song"), 0);
    }

    #[test]
    fn unpartitioned_strategy_also_flows() {
        // Sanity: strategy only affects placement, not the update stream.
        let mut schema = DatabaseSchema::new("Tiny", 1, 1)
            .with_table(
                TableSchema::new("Doc", ["id"]),
                RecordSchema::new(
                    "Doc",
                    1,
                    vec![Field::new("body", FieldType::Str).indexed()],
                )
                .unwrap(),
            )
            .unwrap();
        schema.strategy = PartitionStrategy::Unpartitioned;
        let cluster = EspressoCluster::new(2).unwrap();
        cluster.create_database(schema).unwrap();
        cluster
            .put("Tiny", "Doc", RowKey::single("1"),
                 &Record::new().with("body", Value::Str("needle".into())))
            .unwrap();
        let global = GlobalIndex::new(cluster.clone(), "Tiny", vec![NodeId(0), NodeId(1)]);
        global.pump().unwrap();
        assert_eq!(global.query("Doc", "body", "needle").len(), 1);
    }
}

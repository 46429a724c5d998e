// Synthetic clinical dataset reproducing the paper's Figure 6 MIMIC schema:
// patients, admissions, patients_admit_info, diagnoses, procedures,
// icustays.
//
// Substitution note (docs/DESIGN.md, Section 1): MIMIC-III requires
// credentialed access and cannot be redistributed; we generate a seeded
// synthetic instance preserving the schema topology, cardinality ratios
// (multiple admissions per patient, several diagnoses/procedures per
// admission), and the correlations the paper's case-study explanations
// surface:
//   * Medicare admissions skew old, male, emergency, and have the higher
//     death rate (Qmimic2/Qmimic4's findings),
//   * ICU length-of-stay groups track hospital stay length, with chapter-16
//     procedures concentrated on long ICU stays (Qmimic3),
//   * diagnosis chapters carry distinct death rates - chapter 2 (neoplasms)
//     high, chapter 13 (musculoskeletal) low (Qmimic1),
//   * ethnicity correlates with religion, stay length and admission type
//     (Qmimic5).
//
// Ownership and thread-safety: stateless generator functions, deterministic
// in the seed; each call returns a fresh caller-owned Database, so
// concurrent calls are safe.

#ifndef CAJADE_DATASETS_MIMIC_H_
#define CAJADE_DATASETS_MIMIC_H_

#include "src/graph/schema_graph.h"
#include "src/storage/database.h"

namespace cajade {

struct MimicOptions {
  double scale_factor = 0.1;
  uint64_t seed = 4321;
  /// Admissions at scale factor 1.0.
  size_t base_admissions = 9000;
};

/// Generates the MIMIC database.
Result<Database> MakeMimicDatabase(const MimicOptions& options = {});

/// Schema graph derived from the FK constraints (Figure 6).
Result<SchemaGraph> MakeMimicSchemaGraph(const Database& db);

/// The paper's MIMIC workload queries Qmimic1..Qmimic5 (Table 5), 1-indexed.
std::string MimicQuerySql(int index);

}  // namespace cajade

#endif  // CAJADE_DATASETS_MIMIC_H_

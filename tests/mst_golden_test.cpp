// Golden records for the five MST algorithms. Each cell's row was
// recorded on the coroutine engine when every algorithm still had a
// coroutine script next to its flat state machine; the flat form is now
// the only source, and each cell must still reproduce its row serially
// and on 2 and 4 shards under both partition policies — the contract
// that a run's every observable is the same at every shard count. The
// at-scale rows came later, from the flat programs as they were before
// their per-node lists moved inline.
//
// A row keeps the readable Table-1 numbers plus one digest over every
// observable of the run (tree, per-node metrics, wake times, telemetry,
// LDT snapshots, the classified outcome, fault and audit meters). On a
// mismatch the test prints the cell's actual row in table syntax; that
// is also how a row is regenerated after an intended change.
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/lower_bounds/grc.h"
#include "smst/mst/api.h"
#include "smst/runtime/sharded/partition.h"

namespace smst {
namespace {

struct Golden {
  const char* cell;
  std::uint64_t rounds;
  std::uint64_t awake_node_rounds;
  std::uint64_t messages;
  std::uint64_t phases;
  const char* outcome;
  std::uint64_t digest;
};

// clang-format off
const Golden kGolden[] = {
    {"ring-24/randomized/seed1", 4116, 1667, 1814, 10, "completed", 0x476802cfb830952ull},
    {"ring-24/randomized/seed5", 4557, 1972, 2054, 11, "completed", 0x97b7724104b64682ull},
    {"ring-24/deterministic/seed1", 35182, 3005, 2140, 6, "completed", 0x537f35e6bb8757full},
    {"ring-24/deterministic/seed5", 35182, 3005, 2140, 6, "completed", 0x537f35e6bb8757full},
    {"ring-24/logstar/seed1", 156359, 9851, 4895, 5, "completed", 0xeb4209e1ee1c9c96ull},
    {"ring-24/logstar/seed5", 156359, 9851, 4895, 5, "completed", 0xeb4209e1ee1c9c96ull},
    {"ring-24/ghs/seed1", 4116, 98784, 1814, 10, "completed", 0x66a50511b8a0ba0cull},
    {"ring-24/ghs/seed5", 4557, 109368, 2054, 11, "completed", 0x40fc1f47bd506e07ull},
    {"ring-24/spanning/seed1", 4116, 1755, 1849, 10, "completed", 0xf5a654fb24e1e9d7ull},
    {"ring-24/spanning/seed5", 4998, 2169, 2264, 12, "completed", 0x180bbace024df1d2ull},
    {"star-16/randomized/seed1", 2475, 656, 944, 9, "completed", 0x32a36e3a5cc00b69ull},
    {"star-16/randomized/seed5", 2772, 638, 988, 10, "completed", 0x3993ead8604e77c2ull},
    {"star-16/deterministic/seed1", 3498, 123, 187, 2, "completed", 0xa562f522a8428911ull},
    {"star-16/deterministic/seed5", 3498, 123, 187, 2, "completed", 0xa562f522a8428911ull},
    {"star-16/logstar/seed1", 26400, 159, 242, 2, "completed", 0xba56e279ae3ad699ull},
    {"star-16/logstar/seed5", 26400, 159, 242, 2, "completed", 0xba56e279ae3ad699ull},
    {"star-16/ghs/seed1", 2475, 39600, 944, 9, "completed", 0x4383b32a01277c96ull},
    {"star-16/ghs/seed5", 2772, 44352, 988, 10, "completed", 0xdeb4d2303051f65cull},
    {"star-16/spanning/seed1", 3366, 719, 1169, 12, "completed", 0x49208827b681da6cull},
    {"star-16/spanning/seed5", 2772, 686, 1015, 10, "completed", 0x3d54efc1b17d2bfaull},
    {"grc-4x8/randomized/seed1", 5964, 2205, 3204, 10, "completed", 0xa98d5936aee4a58eull},
    {"grc-4x8/randomized/seed5", 6603, 2817, 3690, 11, "completed", 0x9d723f5add226607ull},
    {"grc-4x8/deterministic/seed1", 84561, 5000, 4164, 7, "completed", 0xec404a941e3746e9ull},
    {"grc-4x8/deterministic/seed5", 84561, 5000, 4164, 7, "completed", 0xec404a941e3746e9ull},
    {"grc-4x8/logstar/seed1", 283148, 17182, 9136, 6, "completed", 0xec7852b0ca063a07ull},
    {"grc-4x8/logstar/seed5", 283148, 17182, 9136, 6, "completed", 0xec7852b0ca063a07ull},
    {"grc-4x8/ghs/seed1", 5964, 208740, 3204, 10, "completed", 0xf973281e02c44e1dull},
    {"grc-4x8/ghs/seed5", 6603, 231105, 3690, 11, "completed", 0x404eb96c0a42b6faull},
    {"grc-4x8/spanning/seed1", 7242, 2536, 3816, 12, "completed", 0xcc04926dba39b9d2ull},
    {"grc-4x8/spanning/seed5", 7242, 2835, 3922, 12, "completed", 0x705a517e4dbd14a9ull},
    {"er-32/randomized/seed1", 7800, 3103, 9297, 14, "completed", 0xc792ad8047705a3cull},
    {"er-32/randomized/seed5", 11895, 4753, 14208, 21, "completed", 0x4101480c0b659747ull},
    {"er-32/deterministic/seed1", 59670, 3498, 5747, 6, "completed", 0xd9107189c7d424bbull},
    {"er-32/deterministic/seed5", 59670, 3498, 5747, 6, "completed", 0xd9107189c7d424bbull},
    {"er-32/logstar/seed1", 207415, 11837, 8704, 5, "completed", 0xb8ee7230e9c4418bull},
    {"er-32/logstar/seed5", 207415, 11837, 8704, 5, "completed", 0xb8ee7230e9c4418bull},
    {"er-32/ghs/seed1", 7800, 249600, 9297, 14, "completed", 0xd92416b3557bcd2eull},
    {"er-32/ghs/seed5", 11895, 380640, 14208, 21, "completed", 0xb0f4a5e31b69a35cull},
    {"er-32/spanning/seed1", 6630, 2414, 7840, 12, "completed", 0xfb3337e018181a88ull},
    {"er-32/spanning/seed5", 4290, 1470, 5011, 8, "completed", 0xed40be3e5d5745f8ull},
    {"ring-24/randomized/mixed", 4729, 770, 978, 10, "crashed-partition", 0xa2b075c972ea309cull},
    {"ring-24/deterministic/mixed", 20974, 520, 501, 0, "crashed-partition", 0x878afcbe4951eca9ull},
    {"ring-24/logstar/mixed", 117111, 1453, 1220, 0, "crashed-partition", 0x82b7695e636387afull},
    {"ring-24/ghs/mixed", 4729, 113496, 978, 10, "crashed-partition", 0x7438acebcc0a82ull},
    {"ring-24/spanning/mixed", 3675, 460, 669, 9, "crashed-partition", 0x21b91f53b4cf7545ull},
    {"ring-24/randomized/crash", 7459, 2765, 2835, 0, "crashed-partition", 0xe2dd31518a05559bull},
    {"ring-24/deterministic/crash", 27985, 1313, 1011, 0, "crashed-partition", 0x7b81dd98198619ceull},
    {"ring-24/logstar/crash", 156170, 4854, 2728, 0, "crashed-partition", 0x1888db0e4198e3b1ull},
    {"ring-24/ghs/crash", 7459, 179016, 2835, 0, "crashed-partition", 0xf12bec749b3b22f9ull},
    {"ring-24/spanning/crash", 6130, 2056, 2168, 0, "crashed-partition", 0x1d96bf03531fba19ull},
    {"star-16/randomized/mixed", 2048, 474, 726, 0, "crashed-partition", 0xdcde5276d14268bull},
    {"star-16/deterministic/mixed", 3317, 80, 104, 0, "crashed-partition", 0x783365c63f3d7db4ull},
    {"star-16/logstar/mixed", 52421, 268, 355, 0, "crashed-partition", 0x491616910a2c3ce2ull},
    {"star-16/ghs/mixed", 2048, 32768, 726, 0, "crashed-partition", 0x5cab688f203e9f22ull},
    {"star-16/spanning/mixed", 4076, 480, 745, 0, "crashed-partition", 0xeb26fb54895b557dull},
    {"star-16/randomized/crash", 2048, 508, 744, 0, "crashed-partition", 0x455e619fee602d4full},
    {"star-16/deterministic/crash", 6766, 302, 366, 0, "crashed-partition", 0xd1c210c3f03d561full},
    {"star-16/logstar/crash", 52570, 308, 393, 0, "crashed-partition", 0xf8d3300fa0c9cecull},
    {"star-16/ghs/crash", 2048, 32768, 744, 0, "crashed-partition", 0xec4594569dfb9226ull},
    {"star-16/spanning/crash", 2048, 519, 752, 0, "crashed-partition", 0xee94dcdcc50025c5ull},
    {"grc-4x8/randomized/mixed", 9408, 1353, 2252, 0, "crashed-partition", 0x2562c053efa27688ull},
    {"grc-4x8/deterministic/mixed", 27939, 547, 634, 0, "crashed-partition", 0x67b8b266706a78a5ull},
    {"grc-4x8/logstar/mixed", 226171, 3759, 2982, 4, "crashed-partition", 0x66da9e589ffa3b77ull},
    {"grc-4x8/ghs/mixed", 9408, 329280, 2252, 0, "crashed-partition", 0x57be47798a7ff573ull},
    {"grc-4x8/spanning/mixed", 6852, 865, 1533, 0, "crashed-partition", 0xc4d3e69128cf117ull},
    {"grc-4x8/randomized/crash", 6963, 2154, 3152, 0, "crashed-partition", 0x7090fbe5a90c4bddull},
    {"grc-4x8/deterministic/crash", 84282, 2865, 2564, 0, "crashed-partition", 0xf492ad1eeec41b11ull},
    {"grc-4x8/logstar/crash", 226279, 4959, 3718, 0, "crashed-partition", 0x59c4e59761fec151ull},
    {"grc-4x8/ghs/crash", 6963, 243705, 3152, 0, "crashed-partition", 0xf3a05d09f5db73c1ull},
    {"grc-4x8/spanning/crash", 6852, 1330, 2088, 0, "crashed-partition", 0x164a6602b4396d5dull},
    {"er-32/randomized/mixed", 5103, 1018, 3542, 0, "crashed-partition", 0xfcc187363869dd9ull},
    {"er-32/deterministic/mixed", 35523, 386, 978, 0, "crashed-partition", 0x282ed5cf38763989ull},
    {"er-32/logstar/mixed", 155351, 2170, 2878, 0, "crashed-partition", 0x6b1c662ceba1efacull},
    {"er-32/ghs/mixed", 5103, 163296, 3542, 0, "crashed-partition", 0x6a9ee48f257fd1e6ull},
    {"er-32/spanning/mixed", 4518, 1347, 4506, 0, "crashed-partition", 0x3175e31bf012c12bull},
    {"er-32/randomized/crash", 6963, 2354, 6933, 0, "crashed-partition", 0xf7bb85dc80ff6c14ull},
    {"er-32/deterministic/crash", 47519, 1816, 3235, 0, "crashed-partition", 0xf3c6658564fa4e4ull},
    {"er-32/logstar/crash", 207160, 4629, 4660, 0, "crashed-partition", 0x54c3c403c27fd7fbull},
    {"er-32/ghs/crash", 6963, 222816, 6933, 0, "crashed-partition", 0x4cd88b2ec25a06aaull},
    {"er-32/spanning/crash", 4518, 899, 3336, 0, "crashed-partition", 0x9d2d0d63564ce719ull},
    {"er-24/randomized/audited", 5439, 2204, 5478, 13, "completed", 0xbe7905e247676e67ull},
    {"er-24/deterministic/audited", 28175, 2030, 3002, 5, "completed", 0xdadeec34d75d8aa7ull},
    {"er-24/logstar/audited", 156359, 8978, 6209, 5, "completed", 0x316614a7b0c3ea22ull},
    {"er-24/ghs/audited", 5439, 130536, 5478, 13, "completed", 0x6512f9c8d824d998ull},
    {"er-24/spanning/audited", 4557, 1609, 4513, 11, "completed", 0xc4e534ffb1b5574eull},
    {"er-20/randomized/seed7", 5658, 2117, 6176, 16, "completed", 0x7a31e4831b21db80ull},
    {"er-20/deterministic/seed7", 20295, 1601, 2692, 5, "completed", 0x17e8e18db5098a62ull},
    {"er-20/logstar/seed7", 130831, 6847, 5253, 5, "completed", 0x63aab5432b72b929ull},
    {"er-20/ghs/seed7", 5658, 113160, 6176, 16, "completed", 0x7a6dd2e5cdd76c5aull},
    {"er-20/spanning/seed7", 4182, 1459, 4514, 12, "completed", 0xd3765ec591590b92ull},
    {"er-20/randomized/adaptive", 4614, 2117, 6176, 16, "completed", 0x5337258542e6be45ull},
    {"er-20/ghs/adaptive", 4614, 92280, 6176, 16, "completed", 0x7ee79c0c68fe5dedull},
    {"er-20/spanning/adaptive", 3138, 1459, 4514, 12, "completed", 0x49f1f4faf3df9457ull},
    {"er-20/randomized/paper-phases", 16605, 2117, 6176, 16, "completed", 0x2bc8f81a1d5f88fdull},
    {"er-20/ghs/paper-phases", 16605, 332100, 6176, 16, "completed", 0xcc3d8f38172d8912ull},
    {"er-20/spanning/paper-phases", 16605, 1459, 4514, 12, "completed", 0xbb95d461bbc994b5ull},
    {"fuzz0-n6/randomized/seed1", 1209, 323, 364, 11, "completed", 0xb74f631810bbf30eull},
    {"fuzz0-n6/randomized/seed9", 624, 175, 200, 6, "completed", 0x59cbcbd9dea34704ull},
    {"fuzz0-n6/deterministic/seed1", 1417, 186, 164, 3, "completed", 0xd39e54a7f199aef8ull},
    {"fuzz0-n6/deterministic/seed9", 1417, 186, 164, 3, "completed", 0xd39e54a7f199aef8ull},
    {"fuzz0-n6/logstar/seed1", 30420, 932, 590, 4, "completed", 0x3bc022c43907829full},
    {"fuzz0-n6/logstar/seed9", 30420, 932, 590, 4, "completed", 0x3bc022c43907829full},
    {"fuzz0-n6/ghs/seed1", 1209, 7254, 364, 11, "completed", 0x64e051b8ab9a7f2ull},
    {"fuzz0-n6/ghs/seed9", 624, 3744, 200, 6, "completed", 0x6569744408f10090ull},
    {"fuzz0-n6/spanning/seed1", 507, 100, 142, 5, "completed", 0xaf95d0971ea414dbull},
    {"fuzz0-n6/spanning/seed9", 624, 162, 190, 6, "completed", 0xbb7fcdd99d20b577ull},
    {"fuzz1-n8/randomized/seed1", 1734, 620, 774, 12, "completed", 0xe5c6eddbc9e0a4afull},
    {"fuzz1-n8/randomized/seed9", 663, 222, 288, 5, "completed", 0x6cf784c235dcbb0aull},
    {"fuzz1-n8/deterministic/seed1", 3264, 451, 396, 4, "completed", 0x78d45a3e8c2cf90cull},
    {"fuzz1-n8/deterministic/seed9", 3264, 451, 396, 4, "completed", 0x78d45a3e8c2cf90cull},
    {"fuzz1-n8/logstar/seed1", 40239, 1799, 1047, 4, "completed", 0x97068763a1fd08cull},
    {"fuzz1-n8/logstar/seed9", 40239, 1799, 1047, 4, "completed", 0x97068763a1fd08cull},
    {"fuzz1-n8/ghs/seed1", 1734, 13872, 774, 12, "completed", 0x126ff5448f1bf929ull},
    {"fuzz1-n8/ghs/seed9", 663, 5304, 288, 5, "completed", 0x9b6b7c1fac4601bfull},
    {"fuzz1-n8/spanning/seed1", 510, 128, 204, 4, "completed", 0x948d6226d82df6b3ull},
    {"fuzz1-n8/spanning/seed9", 1275, 439, 557, 9, "completed", 0xf7c7ca33d2c29f49ull},
    {"fuzz2-n10/randomized/seed1", 1197, 415, 713, 7, "completed", 0xfdd21e0cf2c3093aull},
    {"fuzz2-n10/randomized/seed9", 1008, 335, 595, 6, "completed", 0x9a65cb2cfb2ec84cull},
    {"fuzz2-n10/deterministic/seed1", 4662, 536, 638, 4, "completed", 0xdd5310d791d49300ull},
    {"fuzz2-n10/deterministic/seed9", 4662, 536, 638, 4, "completed", 0xdd5310d791d49300ull},
    {"fuzz2-n10/logstar/seed1", 49707, 2132, 1373, 4, "completed", 0x27b23696e64a9420ull},
    {"fuzz2-n10/logstar/seed9", 49707, 2132, 1373, 4, "completed", 0x27b23696e64a9420ull},
    {"fuzz2-n10/ghs/seed1", 1197, 11970, 713, 7, "completed", 0x95bc9ea8d7cb4842ull},
    {"fuzz2-n10/ghs/seed9", 1008, 10080, 595, 6, "completed", 0xf0c99fa27cb20c7aull},
    {"fuzz2-n10/spanning/seed1", 819, 244, 482, 5, "completed", 0x9179395a1e9b9539ull},
    {"fuzz2-n10/spanning/seed9", 1386, 436, 808, 8, "completed", 0x66f1ff3ef97a7c89ull},
    {"fuzz3-n12/randomized/seed1", 2325, 891, 1662, 11, "completed", 0x71bd971b0e08263aull},
    {"fuzz3-n12/randomized/seed9", 1425, 463, 997, 7, "completed", 0x5f0cf3d9a9306badull},
    {"fuzz3-n12/deterministic/seed1", 6300, 713, 859, 4, "completed", 0xac3bd078a5334836ull},
    {"fuzz3-n12/deterministic/seed9", 6300, 713, 859, 4, "completed", 0xac3bd078a5334836ull},
    {"fuzz3-n12/logstar/seed1", 59175, 2572, 1760, 4, "completed", 0x3ed7d36dfdfd740aull},
    {"fuzz3-n12/logstar/seed9", 59175, 2572, 1760, 4, "completed", 0x3ed7d36dfdfd740aull},
    {"fuzz3-n12/ghs/seed1", 2325, 27900, 1662, 11, "completed", 0xb53324f4bd12efcaull},
    {"fuzz3-n12/ghs/seed9", 1425, 17100, 997, 7, "completed", 0x478e2b9a8c43e127ull},
    {"fuzz3-n12/spanning/seed1", 2550, 901, 1807, 12, "completed", 0x3e2bc14a3dff7a1full},
    {"fuzz3-n12/spanning/seed9", 750, 220, 511, 4, "completed", 0x3b4718726f35f689ull},
    {"fuzz4-n14/randomized/seed1", 2175, 853, 1899, 9, "completed", 0xf47e14dfd2ed834bull},
    {"fuzz4-n14/randomized/seed9", 2436, 974, 2136, 10, "completed", 0xb7f0ba85233b87daull},
    {"fuzz4-n14/deterministic/seed1", 8178, 803, 1164, 4, "completed", 0x79c3c6708dee4d74ull},
    {"fuzz4-n14/deterministic/seed9", 8178, 803, 1164, 4, "completed", 0x79c3c6708dee4d74ull},
    {"fuzz4-n14/logstar/seed1", 91495, 4763, 3142, 5, "completed", 0x9cc8585a1c44373full},
    {"fuzz4-n14/logstar/seed9", 91495, 4763, 3142, 5, "completed", 0x9cc8585a1c44373full},
    {"fuzz4-n14/ghs/seed1", 2175, 30450, 1899, 9, "completed", 0xb10858af509dd05aull},
    {"fuzz4-n14/ghs/seed9", 2436, 34104, 2136, 10, "completed", 0xa1026a46e2523f36ull},
    {"fuzz4-n14/spanning/seed1", 1131, 360, 961, 5, "completed", 0x752bea1d1b7aaf83ull},
    {"fuzz4-n14/spanning/seed9", 3219, 1149, 2787, 13, "completed", 0x355eec68943592e6ull},
    {"fuzz5-n16/randomized/seed1", 2475, 888, 2251, 9, "completed", 0x2df36ebc3f412fc4ull},
    {"fuzz5-n16/randomized/seed9", 3366, 1238, 3088, 12, "completed", 0xc20bfe82e31eb920ull},
    {"fuzz5-n16/deterministic/seed1", 13695, 1284, 1860, 5, "completed", 0xa8b78cbd4927f1fbull},
    {"fuzz5-n16/deterministic/seed9", 13695, 1284, 1860, 5, "completed", 0xa8b78cbd4927f1fbull},
    {"fuzz5-n16/logstar/seed1", 105303, 5492, 3765, 5, "completed", 0xe3bdfdb5ca37cb06ull},
    {"fuzz5-n16/logstar/seed9", 105303, 5492, 3765, 5, "completed", 0xe3bdfdb5ca37cb06ull},
    {"fuzz5-n16/ghs/seed1", 2475, 39600, 2251, 9, "completed", 0x31cf39d652b4646full},
    {"fuzz5-n16/ghs/seed9", 3366, 53856, 3088, 12, "completed", 0x8e8a9e36e70614cull},
    {"fuzz5-n16/spanning/seed1", 2475, 854, 2279, 9, "completed", 0xc5c7d47a9e7cffb1ull},
    {"fuzz5-n16/spanning/seed9", 2178, 777, 1995, 8, "completed", 0x643e1caf7d66836ull},
    {"fuzz6-n6/randomized/seed1", 1209, 307, 370, 11, "completed", 0x5f9736c384dea5b5ull},
    {"fuzz6-n6/randomized/seed9", 390, 100, 122, 4, "completed", 0xc758f24773a6c7bdull},
    {"fuzz6-n6/deterministic/seed1", 2795, 439, 325, 5, "completed", 0xa122539682b0c923ull},
    {"fuzz6-n6/deterministic/seed9", 2795, 439, 325, 5, "completed", 0xa122539682b0c923ull},
    {"fuzz6-n6/logstar/seed1", 20293, 564, 370, 3, "completed", 0x9eb1384a9f4d9780ull},
    {"fuzz6-n6/logstar/seed9", 20293, 564, 370, 3, "completed", 0x9eb1384a9f4d9780ull},
    {"fuzz6-n6/ghs/seed1", 1209, 7254, 370, 11, "completed", 0x66a6576d0af94b0cull},
    {"fuzz6-n6/ghs/seed9", 390, 2340, 122, 4, "completed", 0xeb27fa3c8d060e49ull},
    {"fuzz6-n6/spanning/seed1", 1209, 307, 370, 11, "completed", 0x6d2d4627087927dfull},
    {"fuzz6-n6/spanning/seed9", 390, 100, 122, 4, "completed", 0xc758f24773a6c7bdull},
    {"fuzz7-n8/randomized/seed1", 816, 269, 416, 6, "completed", 0x1d238886e6d855b3ull},
    {"fuzz7-n8/randomized/seed9", 1581, 566, 830, 11, "completed", 0xa9a2d33e8475fd7ull},
    {"fuzz7-n8/deterministic/seed1", 3264, 470, 451, 4, "completed", 0x35c05d1e36900c91ull},
    {"fuzz7-n8/deterministic/seed9", 3264, 470, 451, 4, "completed", 0x35c05d1e36900c91ull},
    {"fuzz7-n8/logstar/seed1", 40239, 1725, 969, 4, "completed", 0xa4c69d3720ef11b2ull},
    {"fuzz7-n8/logstar/seed9", 40239, 1725, 969, 4, "completed", 0xa4c69d3720ef11b2ull},
    {"fuzz7-n8/ghs/seed1", 816, 6528, 416, 6, "completed", 0x9874f4ed8cd1b14ull},
    {"fuzz7-n8/ghs/seed9", 1581, 12648, 830, 11, "completed", 0x5065f7a291b9e08bull},
    {"fuzz7-n8/spanning/seed1", 969, 299, 492, 7, "completed", 0x897c1569ee31ca10ull},
    {"fuzz7-n8/spanning/seed9", 663, 217, 344, 5, "completed", 0x86befa6101e56133ull},
    {"fuzz8-n10/randomized/seed1", 819, 239, 445, 5, "completed", 0xf53c76cf87dc4144ull},
    {"fuzz8-n10/randomized/seed9", 1008, 314, 553, 6, "completed", 0xec4fd569707cf2bfull},
    {"fuzz8-n10/deterministic/seed1", 4662, 531, 586, 4, "completed", 0xcee0ea536f75c9c3ull},
    {"fuzz8-n10/deterministic/seed9", 4662, 531, 586, 4, "completed", 0xcee0ea536f75c9c3ull},
    {"fuzz8-n10/logstar/seed1", 66255, 3408, 1922, 5, "completed", 0xa7e71746c3e60d5bull},
    {"fuzz8-n10/logstar/seed9", 66255, 3408, 1922, 5, "completed", 0xa7e71746c3e60d5bull},
    {"fuzz8-n10/ghs/seed1", 819, 8190, 445, 5, "completed", 0xa9b59fb350c5f1ccull},
    {"fuzz8-n10/ghs/seed9", 1008, 10080, 553, 6, "completed", 0xf8854b7dc4a06f4ull},
    {"fuzz8-n10/spanning/seed1", 1575, 556, 903, 9, "completed", 0x58de5c937dff9327ull},
    {"fuzz8-n10/spanning/seed9", 1764, 588, 1001, 10, "completed", 0xff5688e8d3621c26ull},
    {"fuzz9-n12/randomized/seed1", 2325, 768, 1576, 11, "completed", 0x440d4a37d84c8ef4ull},
    {"fuzz9-n12/randomized/seed9", 1875, 705, 1294, 9, "completed", 0xf88f3784d0052211ull},
    {"fuzz9-n12/deterministic/seed1", 6300, 630, 813, 4, "completed", 0x3a2a763117acc082ull},
    {"fuzz9-n12/deterministic/seed9", 6300, 630, 813, 4, "completed", 0x3a2a763117acc082ull},
    {"fuzz9-n12/logstar/seed1", 78875, 3943, 2554, 5, "completed", 0x10dada19d1a43bd0ull},
    {"fuzz9-n12/logstar/seed9", 78875, 3943, 2554, 5, "completed", 0x10dada19d1a43bd0ull},
    {"fuzz9-n12/ghs/seed1", 2325, 27900, 1576, 11, "completed", 0xb43023710a0ad99cull},
    {"fuzz9-n12/ghs/seed9", 1875, 22500, 1294, 9, "completed", 0xc68c85a4282f96e8ull},
    {"fuzz9-n12/spanning/seed1", 1875, 654, 1289, 9, "completed", 0x380a27b69c83d42aull},
    {"fuzz9-n12/spanning/seed9", 1200, 387, 810, 6, "completed", 0xfce9cc2f80bf06e8ull},
    {"fuzz10-n14/randomized/seed1", 1131, 339, 967, 5, "completed", 0x6d175df4d997dfeaull},
    {"fuzz10-n14/randomized/seed9", 2175, 733, 1912, 9, "completed", 0xe98cac402690071ull},
    {"fuzz10-n14/deterministic/seed1", 5481, 426, 775, 3, "completed", 0xe23ef1c24161fc80ull},
    {"fuzz10-n14/deterministic/seed9", 5481, 426, 775, 3, "completed", 0xe23ef1c24161fc80ull},
    {"fuzz10-n14/logstar/seed1", 68643, 2610, 2198, 4, "completed", 0x3db1d9e4c4a3ee74ull},
    {"fuzz10-n14/logstar/seed9", 68643, 2610, 2198, 4, "completed", 0x3db1d9e4c4a3ee74ull},
    {"fuzz10-n14/ghs/seed1", 1131, 15834, 967, 5, "completed", 0x5786ff6a03c6a54bull},
    {"fuzz10-n14/ghs/seed9", 2175, 30450, 1912, 9, "completed", 0x91cc68be58fe4e0dull},
    {"fuzz10-n14/spanning/seed1", 1653, 564, 1460, 7, "completed", 0x2e3502c3d01bcd17ull},
    {"fuzz10-n14/spanning/seed9", 1914, 544, 1635, 8, "completed", 0xa2ef29a8b3abb805ull},
    {"fuzz11-n16/randomized/seed1", 3366, 1394, 3340, 12, "completed", 0x8e66c4d3aa103d2aull},
    {"fuzz11-n16/randomized/seed9", 2178, 838, 2121, 8, "completed", 0xa31b20e8efcb6c9ull},
    {"fuzz11-n16/deterministic/seed1", 10296, 951, 1498, 4, "completed", 0x32e98dae2167ef7ull},
    {"fuzz11-n16/deterministic/seed9", 10296, 951, 1498, 4, "completed", 0x32e98dae2167ef7ull},
    {"fuzz11-n16/logstar/seed1", 79002, 3951, 2878, 4, "completed", 0xeffbc2504e95f0b0ull},
    {"fuzz11-n16/logstar/seed9", 79002, 3951, 2878, 4, "completed", 0xeffbc2504e95f0b0ull},
    {"fuzz11-n16/ghs/seed1", 3366, 53856, 3340, 12, "completed", 0x8f3e970d46317101ull},
    {"fuzz11-n16/ghs/seed9", 2178, 34848, 2121, 8, "completed", 0x3192350dbb600134ull},
    {"fuzz11-n16/spanning/seed1", 1881, 569, 1777, 7, "completed", 0xefb9c36c5f2ff867ull},
    {"fuzz11-n16/spanning/seed9", 3069, 1215, 3036, 11, "completed", 0xde65b7a1098189d0ull},
    {"ring-1024/randomized", 467172, 247934, 233223, 26, "completed", 0x60875f2c088b5318ull},
    {"er-256/randomized", 107730, 46690, 156908, 24, "completed", 0x74cbfdda1ca8a67ull},
    {"er-256/deterministic", 5349051, 49399, 86916, 9, "completed", 0xd03e9f5f0b1cecb3ull},
    {"er-256/ghs", 107730, 27578880, 156908, 24, "completed", 0x1eb4ef5e62570a84ull},
    {"er-256/spanning", 47709, 17115, 67816, 11, "completed", 0x6455525b79bfb40dull},
    {"er-128/logstar", 1229745, 81896, 61013, 7, "completed", 0x46d336e661768db3ull},
};
// clang-format on

// FNV-1a over the run's fields, each fed as little-endian 64-bit words.
class Digest {
 public:
  void Word(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Real(double x) { Word(std::bit_cast<std::uint64_t>(x)); }
  void Text(const std::string& s) {
    Word(s.size());
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename Vec>
  void Words(const Vec& v) {
    Word(v.size());
    for (const auto x : v) Word(x);
  }
  void Ldt(const LdtState& s) {
    Word(s.fragment_id);
    Word(s.level);
    Word(s.parent_port);
    Words(s.child_ports);
  }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t DigestOf(const MstRunResult& r) {
  Digest d;
  d.Words(r.tree_edges);
  d.Text(r.consistency_error);
  d.Word(r.phases);
  d.Word(r.stats.rounds);
  d.Word(r.stats.max_awake);
  d.Real(r.stats.avg_awake);
  d.Word(r.stats.total_messages);
  d.Word(r.stats.total_bits);
  d.Word(r.stats.max_message_bits);
  d.Word(r.stats.dropped_messages);
  d.Word(r.stats.awake_node_rounds);
  d.Word(r.node_metrics.size());
  for (const NodeMetrics& m : r.node_metrics) {
    d.Word(m.awake_rounds);
    d.Word(m.messages_sent);
    d.Word(m.bits_sent);
    d.Word(m.messages_dropped);
  }
  d.Word(r.wake_times.size());
  for (const auto& w : r.wake_times) d.Words(w);
  d.Words(r.fragments_per_phase);
  d.Words(r.blue_per_phase);
  d.Word(r.final_ldt.size());
  for (const LdtState& s : r.final_ldt) d.Ldt(s);
  d.Word(r.forest_per_phase.size());
  for (const auto& forest : r.forest_per_phase) {
    d.Word(forest.size());
    for (const LdtState& s : forest) d.Ldt(s);
  }
  const RunOutcome& o = r.outcome;
  d.Word(static_cast<std::uint64_t>(o.status));
  d.Text(o.detail);
  d.Word(o.unfinished_nodes);
  d.Word(o.last_round);
  d.Word(o.faults.injected_drops);
  d.Word(o.faults.injected_delays);
  d.Word(o.faults.delayed_delivered);
  d.Word(o.faults.delayed_lost);
  d.Word(o.faults.injected_duplicates);
  d.Word(o.faults.jittered_wakes);
  d.Word(o.faults.suppressed_wakes);
  d.Word(o.faults.crashed_nodes);
  d.Word(o.audited_awake_node_rounds);
  d.Word(o.audited_model_drops);
  d.Word(o.audit_violations);
  return d.Value();
}

struct Cell {
  std::string name;
  std::shared_ptr<const WeightedGraph> graph;
  MstAlgorithm algo;
  MstOptions options;  // engine and shards are set per replay
};

const MstAlgorithm kAlgorithms[] = {
    MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic,
    MstAlgorithm::kDeterministicLogStar, MstAlgorithm::kGhsBaseline,
    MstAlgorithm::kBmSpanningTree};

const char* AlgoKey(MstAlgorithm a) {
  switch (a) {
    case MstAlgorithm::kRandomized: return "randomized";
    case MstAlgorithm::kDeterministic: return "deterministic";
    case MstAlgorithm::kDeterministicLogStar: return "logstar";
    case MstAlgorithm::kGhsBaseline: return "ghs";
    case MstAlgorithm::kBmSpanningTree: return "spanning";
  }
  return "?";
}

MstOptions BaseOptions(std::uint64_t seed) {
  MstOptions opt;
  opt.seed = seed;
  opt.audit = AuditMode::kOff;  // explicit: the digest covers the meters
  opt.record_wake_times = true;
  opt.record_forest_snapshots = true;
  return opt;
}

struct Topology {
  std::string name;
  std::shared_ptr<const WeightedGraph> graph;
};

std::shared_ptr<const WeightedGraph> Share(WeightedGraph g) {
  return std::make_shared<const WeightedGraph>(std::move(g));
}

std::vector<Topology> Topologies() {
  Xoshiro256 ring(71), star(72), grc(73), er(74);
  return {{"ring-24", Share(MakeRing(24, ring))},
          {"star-16", Share(MakeStar(16, star))},
          {"grc-4x8", Share(BuildGrc(4, 8, grc).graph)},
          {"er-32", Share(MakeErdosRenyi(32, 0.2, er))}};
}

// Borrowed by MstOptions::fault_plan for the whole test binary.
const FaultPlan& MixedPlan() {
  static const FaultPlan plan =
      ParseFaultPlan("salt=9,drop=0.003,delay=2:0.02,dup=0.01,jitter=2:0.01");
  return plan;
}
const FaultPlan& CrashPlan() {
  static const FaultPlan plan =
      ParseFaultPlan("salt=4,crash=40:0.05,drop=0.002");
  return plan;
}

std::vector<Cell> FaultFreeCells() {
  std::vector<Cell> cells;
  for (const Topology& t : Topologies()) {
    for (MstAlgorithm algo : kAlgorithms) {
      for (std::uint64_t seed : {1, 5}) {
        cells.push_back({t.name + "/" + AlgoKey(algo) + "/seed" +
                             std::to_string(seed),
                         t.graph, algo, BaseOptions(seed)});
      }
    }
  }
  return cells;
}

// Drops, delays, duplicates and jitter; and a crash-stop plan.
std::vector<Cell> FaultedCells() {
  std::vector<Cell> cells;
  for (const Topology& t : Topologies()) {
    for (const auto& [key, plan] :
         {std::pair{"mixed", &MixedPlan()}, std::pair{"crash", &CrashPlan()}}) {
      for (MstAlgorithm algo : kAlgorithms) {
        MstOptions opt = BaseOptions(3);
        opt.fault_plan = plan;
        cells.push_back({t.name + "/" + AlgoKey(algo) + "/" + key, t.graph,
                         algo, opt});
      }
    }
  }
  return cells;
}

// AuditMode::kOn keeps every round on the observed (unfused) path; the
// audit meters are part of the digest.
std::vector<Cell> AuditedCells() {
  Xoshiro256 rng(75);
  const auto g = Share(MakeErdosRenyi(24, 0.25, rng));
  std::vector<Cell> cells;
  for (MstAlgorithm algo : kAlgorithms) {
    MstOptions opt = BaseOptions(2);
    opt.audit = AuditMode::kOn;
    cells.push_back({std::string("er-24/") + AlgoKey(algo) + "/audited", g,
                     algo, opt});
  }
  return cells;
}

// Adaptive blocks (the randomized engine's algorithms; the deterministic
// ones reject them, see the test below) and the paper's fixed phase budget
// (the GHS-style algorithms only: the deterministic budget is ~10^6
// phases), next to the plain runs on the same graph.
bool TakesAdaptiveBlocks(MstAlgorithm algo) {
  return algo != MstAlgorithm::kDeterministic &&
         algo != MstAlgorithm::kDeterministicLogStar;
}

std::shared_ptr<const WeightedGraph> AdaptiveGraph() {
  Xoshiro256 rng(76);
  return Share(MakeErdosRenyi(20, 0.3, rng));
}

std::vector<Cell> AdaptiveAndPaperCells() {
  const auto g = AdaptiveGraph();
  std::vector<Cell> cells;
  for (MstAlgorithm algo : kAlgorithms) {
    cells.push_back({std::string("er-20/") + AlgoKey(algo) + "/seed7", g,
                     algo, BaseOptions(7)});
    if (!TakesAdaptiveBlocks(algo)) continue;
    MstOptions opt = BaseOptions(7);
    opt.adaptive_blocks = true;
    cells.push_back({std::string("er-20/") + AlgoKey(algo) + "/adaptive", g,
                     algo, opt});
  }
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kGhsBaseline,
        MstAlgorithm::kBmSpanningTree}) {
    MstOptions opt = BaseOptions(7);
    opt.termination = TerminationMode::kPaperPhaseCount;
    cells.push_back({std::string("er-20/") + AlgoKey(algo) + "/paper-phases",
                     g, algo, opt});
  }
  return cells;
}

// Seed-swept small random graphs: a broad, cheap net.
std::vector<Cell> SeedSweptCells() {
  std::vector<Cell> cells;
  for (std::uint64_t topo_seed = 0; topo_seed < 12; ++topo_seed) {
    Xoshiro256 rng(1000 + topo_seed);
    const std::size_t n = 6 + 2 * (topo_seed % 6);  // 6..16 nodes
    const auto g = Share(MakeErdosRenyi(n, 0.35, rng));
    for (MstAlgorithm algo : kAlgorithms) {
      for (std::uint64_t seed : {1, 9}) {
        cells.push_back({"fuzz" + std::to_string(topo_seed) + "-n" +
                             std::to_string(n) + "/" + AlgoKey(algo) +
                             "/seed" + std::to_string(seed),
                         g, algo, BaseOptions(seed)});
      }
    }
  }
  return cells;
}

// Sizes the cells above do not reach. There no fragment ever has 4
// H-neighbors, so Deterministic-MST's bounded per-node lists (H-neighbor
// info, coloring stages and neighbor colors) never fill; on ER-256 (the
// CLI's default p = 8/n) they do. The ring's fragments grow to hundreds
// of hops deep.
std::vector<Cell> AtScaleCells() {
  Xoshiro256 ring(77), er(78), er_small(79);
  const auto ring_g = Share(MakeRing(1024, ring));
  const auto er_g = Share(MakeErdosRenyi(256, 8.0 / 256, er));
  const auto er_small_g = Share(MakeErdosRenyi(128, 8.0 / 128, er_small));
  std::vector<Cell> cells;
  cells.push_back({"ring-1024/randomized", ring_g, MstAlgorithm::kRandomized,
                   BaseOptions(1)});
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic,
        MstAlgorithm::kGhsBaseline, MstAlgorithm::kBmSpanningTree}) {
    cells.push_back({std::string("er-256/") + AlgoKey(algo), er_g, algo,
                     BaseOptions(1)});
  }
  cells.push_back({"er-128/logstar", er_small_g,
                   MstAlgorithm::kDeterministicLogStar, BaseOptions(1)});
  return cells;
}

const Golden* FindGolden(const std::string& cell) {
  for (const Golden& g : kGolden) {
    if (cell == g.cell) return &g;
  }
  return nullptr;
}

std::string RowOf(const std::string& cell, const MstRunResult& r) {
  std::ostringstream os;
  os << "    {\"" << cell << "\", " << r.stats.rounds << ", "
     << r.stats.awake_node_rounds << ", " << r.stats.total_messages << ", "
     << r.phases << ", \"" << RunStatusName(r.outcome.status) << "\", 0x"
     << std::hex << DigestOf(r) << "ull},";
  return os.str();
}

struct Replay {
  std::uint32_t shards;  // 0 = serial
  ShardPolicy policy;
};

void ExpectReplayMatches(const Cell& c, const Replay& replay) {
  SCOPED_TRACE(c.name + " on " +
               (replay.shards == 0
                    ? std::string("serial")
                    : std::to_string(replay.shards) + " shards, " +
                          ShardPolicyName(replay.policy)));
  MstOptions opt = c.options;
  opt.shards = replay.shards;
  opt.shard_policy = replay.policy;
  const MstRunResult r = ComputeMst(*c.graph, c.algo, opt);
  const std::string row = RowOf(c.name, r);
  const Golden* want = FindGolden(c.name);
  if (want == nullptr) {
    ADD_FAILURE() << "no golden row; actual:\n" << row;
    return;
  }
  EXPECT_EQ(r.stats.rounds, want->rounds) << row;
  EXPECT_EQ(r.stats.awake_node_rounds, want->awake_node_rounds) << row;
  EXPECT_EQ(r.stats.total_messages, want->messages) << row;
  EXPECT_EQ(r.phases, want->phases) << row;
  EXPECT_STREQ(RunStatusName(r.outcome.status), want->outcome) << row;
  EXPECT_EQ(DigestOf(r), want->digest) << row;
}

void ExpectCellsMatch(const std::vector<Cell>& cells) {
  for (const Cell& c : cells) {
    for (const Replay& replay :
         {Replay{0, ShardPolicy::kContiguousBlocks},
          Replay{2, ShardPolicy::kContiguousBlocks},
          Replay{2, ShardPolicy::kRoundRobin},
          Replay{4, ShardPolicy::kContiguousBlocks},
          Replay{4, ShardPolicy::kRoundRobin}}) {
      ExpectReplayMatches(c, replay);
    }
  }
}

TEST(MstGoldenTest, FaultFreeRunsMatchTheRecords) {
  ExpectCellsMatch(FaultFreeCells());
}

TEST(MstGoldenTest, FaultedRunsMatchTheRecords) {
  ExpectCellsMatch(FaultedCells());
}

TEST(MstGoldenTest, AuditedRunsMatchTheRecords) {
  ExpectCellsMatch(AuditedCells());
}

TEST(MstGoldenTest, AdaptiveBlocksAndPaperPhasesMatchTheRecords) {
  ExpectCellsMatch(AdaptiveAndPaperCells());
}

TEST(MstGoldenTest, DeterministicVariantsRejectAdaptiveBlocks) {
  // These two cells once recorded the plain seed-7 runs: the option was
  // silently ignored.
  const auto g = AdaptiveGraph();
  for (MstAlgorithm algo : kAlgorithms) {
    if (TakesAdaptiveBlocks(algo)) continue;
    for (const std::uint32_t shards : {0u, 2u}) {
      SCOPED_TRACE(std::string(AlgoKey(algo)) + " shards " +
                   std::to_string(shards));
      MstOptions opt = BaseOptions(7);
      opt.adaptive_blocks = true;
      opt.shards = shards;
      EXPECT_THROW(ComputeMst(*g, algo, opt), std::invalid_argument);
    }
  }
}

TEST(MstGoldenTest, SeedSweptGraphsMatchTheRecords) {
  ExpectCellsMatch(SeedSweptCells());
}

TEST(MstGoldenTest, AtScaleRunsMatchTheRecords) {
  ExpectCellsMatch(AtScaleCells());
}

TEST(ShardedIdentityTest, OverProvisionedShardCountClamps) {
  // More shards than nodes: clamped to one node per shard, and still the
  // 6-node cell's record.
  const std::string name = "fuzz0-n6/randomized/seed1";
  bool found = false;
  for (const Cell& c : SeedSweptCells()) {
    if (c.name != name) continue;
    found = true;
    ExpectReplayMatches(c, {64, ShardPolicy::kRoundRobin});
  }
  EXPECT_TRUE(found) << name;
}

}  // namespace
}  // namespace smst

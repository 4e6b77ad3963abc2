//===- LutAnalysis.cpp ----------------------------------------------------===//

#include "codegen/LutAnalysis.h"

#include <map>
#include <set>

using namespace limpet;
using namespace limpet::codegen;
using namespace limpet::easyml;

namespace {

/// Rewrites expressions for one table.
class TableExtractor {
public:
  TableExtractor(const ModelInfo &Info, int TableId, LutTablePlan &Plan)
      : Info(Info), TableId(TableId), Plan(Plan) {}

  ExprPtr rewrite(const ExprPtr &E) {
    auto It = Memo.find(E.get());
    if (It != Memo.end())
      return It->second;
    ExprPtr R = rewriteImpl(E);
    Memo.emplace(E.get(), R);
    return R;
  }

private:
  const ModelInfo &Info;
  int TableId;
  LutTablePlan &Plan;
  std::map<const Expr *, ExprPtr> Memo;

  /// True if \p E mentions only the lookup variable and parameters. A
  /// column of an earlier table is a LutRef, which exprFreeVars does not
  /// see, so it is rejected by hand: its value depends on that table's
  /// lookup variable, not this one's.
  bool tabulatable(const Expr &E) {
    if (containsLutRef(E))
      return false;
    for (const std::string &V : exprFreeVars(E)) {
      if (V == Plan.Spec.VarName)
        continue;
      if (Info.paramIndex(V) >= 0)
        continue;
      return false;
    }
    return true;
  }

  static bool containsLutRef(const Expr &E) {
    if (E.Kind == ExprKind::LutRef)
      return true;
    for (const ExprPtr &Op : E.Operands)
      if (containsLutRef(*Op))
        return true;
    return false;
  }

  /// True when replacing \p E with an interpolation pays off: the paper's
  /// implementation tabulates expressions containing transcendental calls
  /// or divisions, not single loads or constants.
  static bool worthwhile(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::Call:
      return true;
    case ExprKind::Binary:
      if (E.BinOp == BinaryOp::Div)
        return true;
      break;
    default:
      break;
    }
    for (const ExprPtr &Op : E.Operands)
      if (worthwhile(*Op))
        return true;
    return false;
  }

  int columnFor(const ExprPtr &E) {
    for (size_t I = 0; I != Plan.Columns.size(); ++I)
      if (exprEquals(*Plan.Columns[I], *E))
        return int(I);
    Plan.Columns.push_back(E);
    return int(Plan.Columns.size()) - 1;
  }

  /// Boolean-valued nodes (comparisons, logic) must not become table
  /// columns: linearly interpolating a 0/1 column yields fractional
  /// "truth" values near transitions. Their float-valued children are
  /// tabulated instead.
  static bool boolValued(const Expr &E) {
    if (E.Kind == ExprKind::Binary)
      switch (E.BinOp) {
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::And:
      case BinaryOp::Or:
        return true;
      default:
        return false;
      }
    return E.Kind == ExprKind::Unary && E.UnOp == UnaryOp::Not;
  }

  ExprPtr rewriteImpl(const ExprPtr &E) {
    if (E->Kind == ExprKind::Number || E->Kind == ExprKind::LutRef)
      return E;
    if (E->Kind == ExprKind::VarRef)
      return E; // bare variable loads are cheaper than interpolation

    if (!boolValued(*E) && exprReferences(*E, Plan.Spec.VarName) &&
        tabulatable(*E) && worthwhile(*E)) {
      int Col = columnFor(E);
      return Expr::makeLutRef(TableId, Col, E->Loc);
    }

    bool Changed = false;
    std::vector<ExprPtr> NewOps;
    NewOps.reserve(E->Operands.size());
    for (const ExprPtr &Op : E->Operands) {
      ExprPtr R = rewrite(Op);
      Changed |= R != Op;
      NewOps.push_back(std::move(R));
    }
    if (!Changed)
      return E;
    auto Copy = std::make_shared<Expr>(*E);
    Copy->Operands = std::move(NewOps);
    return Copy;
  }
};

} // namespace

LutPlan codegen::extractLuts(const ModelInfo &Info,
                             const std::vector<easyml::ExprPtr *> &Roots,
                             bool Enable) {
  LutPlan Plan;
  if (!Enable)
    return Plan;
  for (size_t T = 0; T != Info.Luts.size(); ++T) {
    Plan.Tables.push_back({Info.Luts[T], {}});
    TableExtractor Extractor(Info, int(T), Plan.Tables.back());
    for (easyml::ExprPtr *Root : Roots)
      if (*Root)
        *Root = Extractor.rewrite(*Root);
  }
  return Plan;
}

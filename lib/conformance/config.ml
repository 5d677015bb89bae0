type ambiguity = First_match | Best_score | Reject_ambiguous

type t = {
  name_distance : int;
  allow_wildcards : bool;
  compare_namespaces : bool;
  check_fields : bool;
  check_supertypes : bool;
  check_methods : bool;
  check_ctors : bool;
  check_modifiers : bool;
  consider_permutations : bool;
  ambiguity : ambiguity;
  max_depth : int;
}

let strict =
  {
    name_distance = 0;
    allow_wildcards = false;
    compare_namespaces = false;
    check_fields = true;
    check_supertypes = true;
    check_methods = true;
    check_ctors = true;
    check_modifiers = true;
    consider_permutations = true;
    ambiguity = First_match;
    max_depth = 64;
  }

let name_only =
  {
    strict with
    check_fields = false;
    check_supertypes = false;
    check_methods = false;
    check_ctors = false;
    check_modifiers = false;
  }

let relaxed ~distance = { strict with name_distance = distance }
let with_wildcards = { strict with allow_wildcards = true }

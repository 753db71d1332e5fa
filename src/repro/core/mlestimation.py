"""Maximum-likelihood estimation for ExaLogLog (paper Sec. 3.2, Alg. 3).

The distribution Eq. (8) makes every update-value probability a power of
two, so the log-likelihood of the full register state collapses to the
small form Eq. (15),

    ln L = -(n/m) alpha + sum_{u=t+1}^{64-p} beta_u ln(1 - e^(-n/(m 2**u))),

whose coefficients this module extracts with integer arithmetic
(Algorithm 3) and whose root the shared Newton solver finds (Algorithm 8).
The optional first-order bias correction Eq. (4) divides the ML estimate by
``1 + c/m``. The constant ``c`` depends only on ``(t, d)``, so it is read
from ``_BIAS_CONSTANT``, a table over the whole valid grid that
``repro.theory.mvp.bias_correction_constant`` generates (and the test suite
pins exactly). Deriving it at run time needs scipy's Hurwitz zeta: about
0.6 s and 52 MB RSS of imports in every fresh process, which made it the
largest share of a cold CLI query. With the table no serving path imports
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.distribution import omega_scaled_table, phi_table
from repro.core.params import ExaLogLogParams
from repro.estimation.newton import MLSolution, solve_ml_equation


@dataclass(frozen=True)
class MLCoefficients:
    """The (alpha, beta) coefficients of the log-likelihood Eq. (15)."""

    alpha: float
    """Linear coefficient (``alpha' / 2**(64-p)`` of Algorithm 3)."""

    alpha_scaled: int
    """Exact integer ``alpha * 2**(64-p)``."""

    beta: dict[int, int]
    """Counts ``beta_u`` keyed by exponent ``u in [t+1, 64-p]``."""

    @property
    def is_empty(self) -> bool:
        """True when all registers were in the initial state."""
        return not self.beta

    @property
    def is_saturated(self) -> bool:
        """True when alpha vanished (all registers saturated)."""
        return self.alpha_scaled == 0


def compute_coefficients(
    registers: Sequence[int], params: ExaLogLogParams
) -> MLCoefficients:
    """Algorithm 3: extract (alpha, beta) from the register values.

    The accumulation of ``alpha' = alpha * 2**(64-p)`` uses only integer
    arithmetic, exactly as the paper prescribes, so no precision is lost
    even for exa-scale states.
    """
    d = params.d
    p = params.p
    phis = phi_table(params)
    omegas_scaled = omega_scaled_table(params)
    shift = 64 - p

    alpha_scaled = 0
    beta: dict[int, int] = {}
    for r in registers:
        u = r >> d
        alpha_scaled += omegas_scaled[u]
        if u >= 1:
            j = phis[u]
            beta[j] = beta.get(j, 0) + 1
            if u >= 2:
                for k in range(max(1, u - d), u):
                    j = phis[k]
                    if (r >> (d - u + k)) & 1:
                        beta[j] = beta.get(j, 0) + 1
                    else:
                        alpha_scaled += 1 << (shift - j)
    return MLCoefficients(
        alpha=alpha_scaled / (1 << shift), alpha_scaled=alpha_scaled, beta=beta
    )


def bias_correction_factor(params: ExaLogLogParams) -> float:
    """``(1 + c/m)**-1`` with the constant ``c`` of Eq. (4)."""
    c = _BIAS_CONSTANT[params.t][params.d]
    return 1.0 / (1.0 + c / params.m)


def estimate_from_coefficients(
    coefficients: MLCoefficients,
    params: ExaLogLogParams,
    bias_correction: bool = True,
) -> float:
    """Solve the ML equation and apply the optional bias correction."""
    solution = solve_ml_equation(coefficients.alpha, coefficients.beta)
    estimate = params.m * solution.nu
    if bias_correction and estimate > 0.0:
        estimate *= bias_correction_factor(params)
    return estimate


def solve_from_coefficients(
    coefficients: MLCoefficients, params: ExaLogLogParams
) -> MLSolution:
    """Raw solver output (used by tests asserting iteration counts)."""
    return solve_ml_equation(coefficients.alpha, coefficients.beta)


def ml_estimate(
    registers: Sequence[int], params: ExaLogLogParams, bias_correction: bool = True
) -> float:
    """Convenience wrapper: Algorithm 3 followed by Algorithm 8."""
    coefficients = compute_coefficients(registers, params)
    return estimate_from_coefficients(coefficients, params, bias_correction)


#: The constant ``c`` of Eq. (4), ``_BIAS_CONSTANT[t][d]`` for ``t`` in
#: ``[0, MAX_T]`` and ``d`` in ``[0, MAX_D_BITS]``, exactly as
#: ``repro.theory.mvp.bias_correction_constant`` computes it (see there to
#: regenerate).
_BIAS_CONSTANT: tuple[tuple[float, ...], ...] = (
    (  # t = 0, d = 0 .. 64
        1.0101590809585395, 0.6574064986454712, 0.48147376527720037, 0.3941928266965643,
        0.3508944787907805, 0.3293646598127798, 0.3186349587965359, 0.31327966867319623,
        0.3106045145132061, 0.30926757315551384, 0.30859926305726265,
        0.30826514836114693, 0.3080981011274254, 0.30801458004241555, 0.307972820133282,
        0.30795194033710926, 0.3079415004786278, 0.307936280559289, 0.30793367060209526,
        0.3079323656241173, 0.3079317131352831, 0.3079313868909044, 0.3079312237687252,
        0.3079311422076376, 0.3079311014270947, 0.30793108103682315,
        0.30793107084168764, 0.3079310657441201, 0.3079310631953358, 0.307931061920944,
        0.3079310612837479, 0.3079310609651499, 0.3079310608058509, 0.3079310607262014,
        0.3079310606863767, 0.3079310606664642, 0.30793106065650827, 0.3079310606515303,
        0.307931060649041, 0.30793106064779635, 0.3079310606471741, 0.30793106064686315,
        0.3079310606467075, 0.30793106064662984, 0.307931060646591, 0.30793106064657155,
        0.3079310606465615, 0.3079310606465569, 0.30793106064655434, 0.3079310606465531,
        0.3079310606465525, 0.3079310606465522, 0.30793106064655207, 0.3079310606465519,
        0.30793106064655185, 0.30793106064655185, 0.30793106064655185,
        0.30793106064655185, 0.30793106064655185, 0.30793106064655185,
        0.30793106064655185, 0.30793106064655185, 0.30793106064655185,
        0.30793106064655185, 0.30793106064655185,
    ),
    (  # t = 1, d = 0 .. 64
        1.0008872152347765, 0.7535432119395635, 0.57799224826079, 0.45345476873253726,
        0.36524045688604795, 0.30288772510110046, 0.2589033693092639,
        0.2279182490676777, 0.2061024478499014, 0.19074089378272702,
        0.17991875444163977, 0.17228968432095998, 0.16690809112853042,
        0.16310971904232566, 0.16042754724297192, 0.1585328762872112,
        0.15719412237468924, 0.1562479799300827, 0.15557920923487553,
        0.15510644463518605, 0.15477221384540168, 0.1545359092681695,
        0.1543688328922093, 0.1542507001689774, 0.15416717178350686,
        0.15410811033016414, 0.1540663485940499, 0.1540368190965682, 0.1540159388434169,
        0.1540011744022388, 0.1539907344294835, 0.15398335228581844, 0.1539781323379075,
        0.15397444128531015, 0.1539718313209729, 0.15396998579948362,
        0.15396868081971968, 0.15396775806017743, 0.15396710557089655,
        0.15396664419142606, 0.15396631794693605, 0.15396608725727592,
        0.15396592413506846, 0.15396580879025715, 0.15396572722916288,
        0.15396566955676194, 0.15396562877621714, 0.15396559994001785,
        0.15396557954974596, 0.1539655651316466, 0.15396555493651076,
        0.1539655477274612, 0.1539655426298934, 0.1539655390253686, 0.15396553647658465,
        0.15396553467432222, 0.1539655333999304, 0.15396553249879913,
        0.15396553186160322, 0.15396553141103764, 0.15396553109243963,
        0.15396553086715678, 0.1539655307078579, 0.15396553059521634,
        0.1539655305155669,
    ),
    (  # t = 2, d = 0 .. 64
        1.0000622933078316, 0.853954726990373, 0.7309857307864877, 0.6274683312575398,
        0.5403052852252053, 0.4668961218056212, 0.40505866032132753, 0.352962488987238,
        0.3090723739740013, 0.2721000490382487, 0.24096326105437182,
        0.21475125005795798, 0.19269598704624136, 0.17414850112528046,
        0.15855957138424726, 0.14546401855336086, 0.1344678561743203,
        0.1252376545360703, 0.11749160485613994, 0.11099190981733907,
        0.10553824307173437, 0.10096210383770003, 0.09712194493314381,
        0.09389898147950879, 0.09119360205952272, 0.08892231147244978,
        0.08701513896044305, 0.08541345020877443, 0.08406810639739672,
        0.08293791914655976, 0.08198835607360878, 0.08119045752259443,
        0.08051993056768489, 0.07995639144859482, 0.07948273208488088,
        0.07908459021739996, 0.0787499060648308, 0.07846855121070932,
        0.07823201781223708, 0.07803315820824425, 0.07786596665871104,
        0.07772539632492272, 0.07760720574354611, 0.07750782999885661,
        0.07742427258796857, 0.0773540146317054, 0.07729493863148884,
        0.07724526442915787, 0.07720349540750207, 0.07716837328734202,
        0.07713884014280344, 0.07711400647876558, 0.07709312440056885,
        0.07707556506193701, 0.07706079970769955, 0.07704838373742591,
        0.07703794330795102, 0.07702916406986905, 0.07702178169777717,
        0.07701557392838514, 0.07701035386623706, 0.07700596435511374,
        0.07700227324538932, 0.07699916941466824, 0.07699655942176442,
    ),
    (  # t = 3, d = 0 .. 64
        1.00000402386814, 0.9204987904254641, 0.847583659209582, 0.7807110942115163,
        0.7193789855218202, 0.663126883885616, 0.6115325490668425, 0.5642087861144509,
        0.5208005457444387, 0.4809822669778774, 0.44445544191931424, 0.4109463841348844,
        0.3802041835091502, 0.35199883174001806, 0.32611950379083765,
        0.3023729816801103, 0.280582207977136, 0.26058495731327946, 0.24223261513950503,
        0.22538905388383867, 0.20992959760207303, 0.19574006717487089,
        0.18271589907444907, 0.17076133168065852, 0.15978865403486908,
        0.1497175127400905, 0.14047427340789406, 0.13199143358625567,
        0.12420708446178987, 0.1170644188179796, 0.11051128276973962,
        0.10449976872115585, 0.09898584685397357, 0.0939290322977488,
        0.08929208500174557, 0.08504073925639391, 0.08114345981765925,
        0.0775712216764929, 0.07429731068114102, 0.07129714244734375,
        0.06854809726034515, 0.06602936896195198, 0.0637218261060741,
        0.061607883941355454, 0.0596713860282345, 0.05789749451333542,
        0.05627258826382313, 0.05478416820891764, 0.05342076934810767,
        0.052171878970067, 0.0510278606878195, 0.04997988393925908, 0.04901985863228221,
        0.04814037463446699, 0.047334645821637, 0.04659645841027934,
        0.04592012330745407, 0.04530043221980832, 0.04473261727137741,
        0.044212313888474575, 0.043735526719325124, 0.04329859836620498,
        0.042898180718604184, 0.042531208687188356, 0.0421948761498979,
    ),
)
